"""Benchmark of the incevolkov CLI: three workloads, checked outputs.

    python3 benchmarks/run.py --workload {cli-mix,verify-grid,large-spectra}
        --seed N --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and uses its `src/` tree.  With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 the same rounds run untraced and then traced, and
the object holds the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads
from tracing import WORK_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")
COMMAND_TIMEOUT_S = 120
COMMAND_KINDS = ("params", "spectrum", "modes", "figure", "verify")
IMPORT_PACKAGES = ("numpy", "scipy", "incevolkov")


class BenchmarkError(Exception):
    """The run could not be measured (as opposed to a wrong output)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(cmd, env, cwd, timeout=COMMAND_TIMEOUT_S):
    """Run one process to its end; returns (process, wall seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(cmd)} ran past {timeout} s") from exc
    return proc, time.perf_counter() - start


def import_self_ms(stderr: str) -> dict:
    """Self import time per top-level package, from `python -X importtime`."""
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in out:
            out[top] += int(self_us) / 1000.0
    return out


def check_import(env, cwd) -> None:
    """Import the package once, untimed: fills the bytecode and file caches
    and confirms that the checkout's own package is the one imported."""
    proc, _ = run_child([sys.executable, "-c",
                         "import incevolkov.cli; print(incevolkov.__file__)"],
                        env, cwd)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import incevolkov.cli:\n{proc.stderr}")
    if Path(proc.stdout.strip()).resolve().parent != SRC / "incevolkov":
        raise BenchmarkError(f"imported {proc.stdout.strip()}, not the checkout's")


def time_imports(env, cwd, reps: int, importtime: bool, into: list) -> None:
    """Append (wall s, self import ms per package) of `reps` fresh
    interpreters importing incevolkov.cli."""
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(reps):
        proc, wall = run_child([sys.executable, *flags, "-c", "import incevolkov.cli"],
                               env, cwd)
        into.append((wall, import_self_ms(proc.stderr)))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _config_value(name: str, key: str) -> float:
    for line in (ROOT / "configs" / name).read_text().splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return float(v)
    raise BenchmarkError(f"configs/{name} has no {key}")


def check_op(op: dict, rc: int, text: str, stats: dict) -> list:
    """Problems of one operation's output; failure counts go to `stats`.

    An operation fails when its exit code is not 0, a residual row of its
    spectrum fails the ODE tolerance, or (for verify) a grid point fails.
    Any other disagreement is a problem: the benchmark reports incorrect.
    """
    failing = 0
    check = op["check"]
    try:
        if check == "figure1":
            problems = oracle.check_figure1(text)
        elif check == "figure2":
            problems = oracle.check_figure2(text, int(_config_value("figure2.cfg", "n")),
                                            _config_value("figure2.cfg", "a"))
        elif check == "figure3":
            problems = oracle.check_figure3(text, int(_config_value("figure3.cfg", "n")))
        elif check == "params":
            problems = oracle.check_params(json.loads(text))
        elif check == "spectrum":
            doc = json.loads(text)
            problems, failing = oracle.check_spectrum(doc, *op["point"])
            stats["failed_eigenpairs"] += failing
            stats["spectra"][tuple(op["point"])] = doc["etas"]
        elif check == "modes":
            problems = oracle.check_modes(json.loads(text), *op["point"], op["k_select"])
        else:
            problems, failing = oracle.check_verify(json.loads(text), op["points"])
            stats["points"] += len(op["points"])
            stats["failed_points"] += failing
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        if rc == 0:
            return [f"{' '.join(op['argv'])}: unreadable output ({exc!r})"]
        problems = []
    if rc != 0 or failing:
        stats["failed_ops"] += 1
    return problems


def check_outputs(ops, codes, texts, seed: int, mpmath_samples: int):
    stats = {"failed_ops": 0, "failed_eigenpairs": 0, "points": 0,
             "failed_points": 0, "spectra": {}}
    problems = []
    for op, rc, text in zip(ops, codes, texts):
        problems += check_op(op, rc, text, stats)
    # a seeded sample of small spectra against 30-digit mpmath
    small = sorted(p for p in stats["spectra"]
                   if p[2] > 0 and oracle.dim(p[0], p[1]) <= 41)
    for point in random.Random(f"mpmath/{seed}").sample(
            small, min(mpmath_samples, len(small))):
        problems += oracle.check_mpmath(stats["spectra"][point], *point)
    return problems, stats


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _absolute_configs(argv):
    return [str(ROOT / a) if a.startswith("configs/") else a for a in argv]


def _read_trace(path: Path, into: dict) -> None:
    data = json.loads(path.read_text())
    for key in ("self_s", "calls"):
        for layer, value in data["trace"][key].items():
            into[key][layer] = into[key].get(layer, 0) + value
    for key in ("eigenpairs", "serialized_chars"):
        into[key] += data["trace"][key]
    for kind, values in data["main_s"].items():
        into["main_s"].setdefault(kind, []).extend(values)


def run_cli_mix(args, env, work: Path) -> dict:
    ops = workloads.cli_mix(args.seed, args.smoke)
    codes, texts = [], []
    repeats_ok = True

    def one_round(traced: bool, trace: dict):
        nonlocal repeats_ok
        wall, latencies = 0.0, []
        for i, op in enumerate(ops):
            argv = _absolute_configs(op["argv"])
            trace_file = work / "trace.json"
            out_file = work / op["file"] if op.get("file") else None
            for stale in (trace_file, out_file):
                if stale is not None:
                    stale.unlink(missing_ok=True)
            cmd = ([sys.executable, WORKER, "cli", str(trace_file), *argv] if traced
                   else [sys.executable, "-m", "incevolkov.cli", *argv])
            proc, dt = run_child(cmd, env, work)
            wall += dt
            latencies.append(dt)
            if traced:
                if not trace_file.exists():
                    raise BenchmarkError(f"traced {' '.join(op['argv'])} left no "
                                         f"trace:\n{proc.stderr}")
                _read_trace(trace_file, trace)
            if out_file is None:
                text = proc.stdout
            else:
                text = out_file.read_text() if out_file.exists() else ""
            if i >= len(texts):
                codes.append(proc.returncode)
                texts.append(text)
            elif texts[i] != text:
                repeats_ok = False
        return wall, latencies

    walls, latencies = [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        wall, lat = one_round(False, None)
        walls.append(wall)
        latencies += lat
    result = {"walls": walls, "latencies": latencies, "rounds": len(walls)}
    if args.trace:
        trace = {"self_s": {}, "calls": {}, "eigenpairs": 0, "serialized_chars": 0,
                 "main_s": {}}
        result["traced_walls"] = [one_round(True, trace)[0] for _ in walls]
        result["trace"] = trace

    def check():
        problems, stats = check_outputs(ops, codes, texts, args.seed,
                                        mpmath_samples=1 if args.smoke else 2)
        if not repeats_ok:
            problems.append("cli-mix: a later round printed different output")
        return {"problems": problems, "stats": stats, "attempted": len(ops),
                "failed": stats["failed_ops"]}

    result["check"] = check
    return result


def run_inproc(args, env, work: Path, ops, warmup, spot=(), negative=None) -> dict:
    outdir = work / "out"
    outdir.mkdir()
    spec = {"ops": [op["argv"] for op in ops], "seconds": args.seconds,
            "outdir": str(outdir), "result": str(work / "result.json"),
            "trace": bool(args.trace), "warmup": warmup,
            "spot": [op["argv"] for op in spot], "negative_control": negative}
    (work / "spec.json").write_text(json.dumps(spec))
    proc, _ = run_child([sys.executable, WORKER, "inproc", str(work / "spec.json")],
                        env, work, timeout=150)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed:\n{proc.stderr}")
    res = json.loads((work / "result.json").read_text())
    plain = res["plain"]
    result = {"walls": plain["walls"], "latencies": plain["latencies"],
              "rounds": len(plain["walls"]), "warmup_s": res["warmup_s"]}
    if args.trace:
        result["traced_walls"] = res["traced"]["walls"]
        result["trace"] = {**res["traced"]["trace"], "main_s": res["traced"]["main_s"]}

    def check():
        texts = [(outdir / f"{i}.out").read_text() for i in range(len(ops))]
        problems, stats = check_outputs(ops, plain["codes"], texts, args.seed,
                                        mpmath_samples=1)
        if spot:
            spot_texts = [(outdir / "spot" / f"{i}.out").read_text()
                          for i in range(len(spot))]
            spot_problems, spot_stats = check_outputs(
                spot, res["spot_codes"], spot_texts, args.seed,
                mpmath_samples=len(spot))
            problems += spot_problems
            if spot_stats["failed_ops"]:
                problems.append(f"{spot_stats['failed_ops']} spot-check spectra failed")
        if not plain["repeats_ok"] or (args.trace and not res["traced"]["repeats_ok"]):
            problems.append("a later round printed different output")
        if negative is not None:
            nc = res["negative_control"]
            if nc["shifted_passed"] or not nc["unshifted_passed"]:
                problems.append(f"negative control at {negative}: shifted eigenvalues "
                                f"passed={nc['shifted_passed']}, unshifted "
                                f"passed={nc['unshifted_passed']}")
        # verify counts grid points as its operations, spectrum counts commands
        if stats["points"]:
            attempted, failed = stats["points"], stats["failed_points"]
        else:
            attempted, failed = len(ops), stats["failed_ops"]
        return {"problems": problems, "stats": stats, "attempted": attempted,
                "failed": failed}

    result["check"] = check
    return result


def run_verify_grid(args, env, work):
    w = workloads.verify_grid(args.seed, args.smoke)
    return run_inproc(args, env, work, w["ops"],
                      warmup=["verify", "--family", "kg-cos-even", "--n", "1",
                              "--a", "1.0"],
                      spot=w["spot_checks"], negative=w["negative_control"])


def run_large_spectra(args, env, work):
    return run_inproc(args, env, work, workloads.large_spectra(args.seed, args.smoke),
                      warmup=["spectrum", "--family", "dirac-plus", "--n", "2",
                              "--a", "1.0", "--format", "json"])


WORKLOADS = {"cli-mix": run_cli_mix, "verify-grid": run_verify_grid,
             "large-spectra": run_large_spectra}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(res: dict, setup_s: float, peak_kb: int) -> dict:
    return {
        "setup_s": (setup_s + res.get("warmup_s", 0.0), "s"),
        "wall_s": (statistics.median(res["walls"]), "s"),
        "cmd_gmean_ms": (1000.0 * statistics.geometric_mean(res["latencies"]), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer_metrics(res: dict, imports: dict) -> dict:
    """Self times and counts per round of the traced run."""
    trace, rounds = res["trace"], len(res["traced_walls"])
    self_s, calls = trace["self_s"], trace["calls"]

    def ms(layer):
        return (1000.0 * self_s.get(layer, 0.0) / rounds, "ms")

    def count(layer):
        return (calls.get(layer, 0) / rounds, "count")

    m = {name: (value, "ms") for name, value in imports.items()}
    for kind in COMMAND_KINDS:
        m[f"cli.{kind}_ms"] = (1000.0 * statistics.median(
            trace["main_s"].get(kind, [0.0])), "ms")
    m["operators.build_ms"] = ms("operators.build")
    m["operators.calls"] = count("operators.build")
    m["spectra.solve_ms"] = ms("spectra.solve")
    m["spectra.eigenpairs"] = (trace["eigenpairs"] / rounds, "count")
    m["verification.sturm_ms"] = ms("verification.sturm")
    m["verification.dense_ms"] = ms("verification.dense")
    m["verification.pde_ms"] = ms("verification.pde")
    m["verification.grid_points"] = count("verification.point")
    m["verification.ode_ms"] = ms("verification.ode")
    m["verification.ode_recheck_ms"] = ms("verification.ode_recheck")
    m["verification.ode_recheck_modes"] = count("verification.ode_recheck")
    m["verification.ode_failed_eigenpairs"] = (res["stats"]["failed_eigenpairs"], "count")
    m["modulation.eval_ms"] = ms("modulation.eval")
    dump_s = self_s.get("serialize.dump", 0.0)
    m["serialize.dump_ms"] = ms("serialize.dump")
    m["serialize.bytes"] = (trace["serialized_chars"] / rounds, "B")
    m["serialize.mb_per_s"] = (trace["serialized_chars"] / 1e6 / dump_s if dump_s else 0.0,
                               "MB/s")
    traced_wall = statistics.median(res["traced_walls"])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - statistics.median(res["walls"]), "s")
    m["trace.layer_share"] = (100.0 * sum(self_s.get(layer, 0.0) for layer in WORK_LAYERS)
                              / sum(res["traced_walls"]), "%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few inputs per workload, every check on")
    args = parser.parse_args(argv)
    if not (SRC / "incevolkov" / "cli.py").is_file():
        print(f"benchmark: no incevolkov sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        # half the set-up samples before the workload and half after, so
        # that they span the same stretch of machine load as the workload
        check_import(env, work)
        reps = 1 if args.smoke else 3
        setups = []
        time_imports(env, work, reps, bool(args.trace), setups)
        res = WORKLOADS[args.workload](args, env, work)
        time_imports(env, work, reps, bool(args.trace), setups)
        # a child records the size of its parent up to exec as its peak, so
        # read the peak before the checks make this process large
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        res.update(res.pop("check")())
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()         # only when no other run is using it
        except OSError:
            pass

    setup_s = statistics.median(wall for wall, _ in setups)
    imports = {f"import.{pkg}_ms": statistics.median(ms[pkg] for _, ms in setups)
               for pkg in IMPORT_PACKAGES}
    metrics = (per_layer_metrics(res, imports) if args.trace
               else end_to_end_metrics(res, setup_s, peak_kb))
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} round(s), "
          f"{res['attempted']} operations per round, {res['failed']} failed, "
          f"median command {1000.0 * statistics.median(res['latencies']):.1f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"] * res["rounds"],
        "failed": res["failed"] * res["rounds"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
