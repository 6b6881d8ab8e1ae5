"""Compare what two source trees print and write, command by command.

    python tests/same_outputs.py --against PATH [--smoke]

PATH is another checkout of this repository, for example the parent
commit made with `git clone` or `git archive`.  Each tree runs one fixed
list of CLI commands in one fresh Python process that imports the tree's
own `src/incevolkov`, from an empty working directory.  For every command
the exit code, stdout, stderr and each file it writes are compared.  The
script lists every command where any of them differs, and exits 1 if one
does, 0 if none does.

The list:
  * `verify --all` at the default grid and at --a 0, 50 and 1e150;
  * one-point `verify` at n = 1..25 of the six kinds and a in
    {0, 0.5, 1, 5, 14, 20, 50} (1,050 points);
  * `spectrum` JSON at the 45 points of the benchmark's `large-spectra`
    workload (three kinds, n in {40, 80, 120, 160, 200}, a in {1, 14, 50}),
    at two dirac-plus points of dim 402 and 520, past the 400 values that
    an array writes on one line, and at two spin-0 points of dim 301 and
    260, whose real residual products span several blocks of modes;
  * `spectrum` and one-point `verify` of the three dim-1 kinds (kg-cos-odd,
    kg-sin-odd, kg-sin-even) at n = 1 and a in {1e307, 1e308, 1.7e308},
    where the ODE residual's terms leave double range and the exit code
    tells a refused input from a failed check;
  * `spectrum` and one-point `verify` at three couplings whose bond
    products leave double range (dirac-plus n = 2 at a = 1e308,
    kg-cos-even n = 3 at 5e-324, dirac-minus n = 4 at 1e-170), and
    `verify --all --a 5e-324`: the bond check's refusals;
  * `spectrum` CSV, `modes` CSV and `modes` JSON of every mode of each
    kind at n = 3, a = 14;
  * `figure 1`, `2` and `3` from `configs/figureN.cfg`, and `params` from
    `configs/reference.cfg` (this tree's configs, for both trees).
That is 1,150 commands; --smoke keeps a few of each sort.

Each command starts with a clean warnings registry, so a numpy warning is
printed as a fresh process would print it; the tree's own path in stderr
reads `<tree>`.  pytest does not collect this file;
`tests/test_same_outputs.py` runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("dirac-plus", "dirac-minus", "kg-cos-even", "kg-cos-odd", "kg-sin-odd",
         "kg-sin-even")
VERIFY_A = ("0", "0.5", "1", "5", "14", "20", "50")
LARGE_SPECTRA = [(kind, n, a) for kind in ("dirac-plus", "kg-cos-even", "kg-sin-odd")
                 for n in (40, 80, 120, 160, 200) for a in ("1.0", "14.0", "50.0")]
WIDE_SPECTRA = [("dirac-plus", 201, "1"), ("dirac-plus", 260, "14"),
                ("kg-cos-even", 300, "14"), ("kg-sin-odd", 260, "1")]
NEAR_LARGEST_DOUBLE = [(kind, a) for kind in ("kg-cos-odd", "kg-sin-odd", "kg-sin-even")
                       for a in ("1e307", "1e308", "1.7e308")]
BOND_REFUSALS = [("dirac-plus", "2", "1e308"), ("kg-cos-even", "3", "5e-324"),
                 ("dirac-minus", "4", "1e-170")]


def commands(smoke: bool) -> list:
    """The fixed command list, as argv lists."""
    configs = ROOT / "configs"
    grids = ("50",) if smoke else (None, "0", "50", "1e150")
    cmds = [["verify", "--all"] + (["--a", a] if a else []) for a in grids]
    ns = (1, 25) if smoke else range(1, 26)
    cmds += [["verify", "--family", kind, "--n", str(n), "--a", a]
             for kind in KINDS for n in ns for a in (("0", "50") if smoke else VERIFY_A)]
    cmds += [["spectrum", "--family", kind, "--n", str(n), "--a", a, "--format", "json"]
             for kind, n, a in (LARGE_SPECTRA[::15] + WIDE_SPECTRA[:1] if smoke
                                else LARGE_SPECTRA + WIDE_SPECTRA)]
    cmds += [[command, "--family", kind, "--n", "1", "--a", a]
             for command in ("spectrum", "verify")
             for kind, a in (NEAR_LARGEST_DOUBLE[4:5] if smoke else NEAR_LARGEST_DOUBLE)]
    cmds += [[command, "--family", kind, "--n", n, "--a", a]
             for command in ("spectrum", "verify")
             for kind, n, a in (BOND_REFUSALS[:1] if smoke else BOND_REFUSALS)]
    cmds.append(["verify", "--all", "--a", "5e-324"])
    cmds += [[command, "--family", kind, "--n", "3", "--a", "14", "--format", fmt]
             for command, fmt in (("spectrum", "csv"), ("modes", "csv"), ("modes", "json"))
             for kind in KINDS]
    cmds += [["figure", str(i), "--config", str(configs / f"figure{i}.cfg")]
             for i in (1, 2, 3)]
    cmds.append(["params", "--config", str(configs / "reference.cfg")])
    return cmds


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_tree(tree: Path, smoke: bool) -> list:
    """In this process: run every command against tree's package.

    Returns one [exit code, stdout digest, stderr, {file: digest}] per
    command.  Must run in a process that has not imported incevolkov.
    """
    sys.path.insert(0, str(tree / "src"))
    from incevolkov import cli

    if Path(cli.__file__).resolve().parents[2] != tree.resolve():
        raise SystemExit(f"imported {cli.__file__}, not the tree {tree}")
    records = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv in commands(smoke):
            out, err = io.StringIO(), io.StringIO()
            # entering catch_warnings resets every module's once-per-location
            # warning memory, as a fresh process starts
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:        # a fresh process prints a traceback
                    code = f"raised {type(exc).__name__}: {exc}"
            files = {}
            for path in sorted(Path(work).iterdir()):
                files[path.name] = _digest(path.read_bytes())
                path.unlink()
            records.append([code, _digest(out.getvalue().encode()),
                            err.getvalue().replace(str(tree), "<tree>"), files])
    return records


def _records(tree: Path, smoke: bool) -> list:
    """run_tree of tree in a fresh process, with no inherited PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree)]
    result = subprocess.run(argv + (["--smoke"] if smoke else []), env=env,
                            capture_output=True, text=True, check=False)
    if result.returncode != 0:
        raise SystemExit(f"{tree}: the run failed\n{result.stderr}")
    return json.loads(result.stdout)


def _stderr_lines(text: str, limit: int = 5) -> str:
    lines = text.splitlines()[:limit]
    return "\n".join(f"      {line[:200]}" for line in lines) or "      (empty)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="the other checkout")
    parser.add_argument("--smoke", action="store_true", help="a short command list")
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree:
        json.dump(run_tree(args.tree, args.smoke), sys.stdout)
        return 0
    if args.against is None or not (args.against / "src" / "incevolkov").is_dir():
        parser.error("--against needs a checkout with src/incevolkov")
    ours, theirs = _records(ROOT, args.smoke), _records(args.against, args.smoke)
    cmds = commands(args.smoke)
    differing = 0
    for argv, mine, other in zip(cmds, ours, theirs, strict=True):
        parts = [name for name, x, y in zip(("exit code", "stdout", "stderr", "files"),
                                            mine, other) if x != y]
        if not parts:
            continue
        differing += 1
        print(f"differs ({', '.join(parts)}): incevolkov {' '.join(argv)}")
        if "exit code" in parts:
            print(f"    exit code: {other[0]} at {args.against}, {mine[0]} here")
        if "stderr" in parts:
            print(f"    stderr at {args.against}:\n{_stderr_lines(other[2])}")
            print(f"    stderr here:\n{_stderr_lines(mine[2])}")
    print(f"{differing} of {len(cmds)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
