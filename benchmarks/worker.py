"""Child process that runs CLI commands inside one interpreter.

    python worker.py inproc SPEC.json     # timed rounds of in-process commands
    python worker.py cli TRACE.json ARG...  # one traced command (cli-mix)

`run.py` starts it with the checkout's `src` on PYTHONPATH and checks the
outputs it leaves behind; this process only runs and times the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

from tracing import Tracer


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, time.perf_counter() - start, out.getvalue()


def _rounds(main, ops, seconds, outdir, digests, rounds=None):
    """Whole rounds of `ops`, until `seconds` have passed or `rounds` ran.

    The clock runs only inside the commands.  The first round's outputs
    are written to `outdir`; later rounds must repeat them byte for byte.
    """
    walls, latencies, codes, repeats_ok = [], [], [], True
    begin = time.perf_counter()
    while True:
        wall = 0.0
        for i, argv in enumerate(ops):
            rc, dt, text = _call(main, argv)
            wall += dt
            latencies.append(dt)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if i not in digests:
                digests[i] = digest
                codes.append(rc)
                with open(os.path.join(outdir, f"{i}.out"), "w") as fh:
                    fh.write(text)
            elif digests[i] != digest:
                repeats_ok = False
        walls.append(wall)
        if rounds is not None and len(walls) >= rounds:
            break
        if rounds is None and time.perf_counter() - begin >= seconds:
            break
    return {"walls": walls, "latencies": latencies, "codes": codes,
            "repeats_ok": repeats_ok}


def run_inproc(spec: dict) -> dict:
    from incevolkov import cli, verification
    from incevolkov.families import FamilyKind

    result = {}
    _, result["warmup_s"], _ = _call(cli.main, spec["warmup"])
    ops = spec["ops"]
    digests = {}
    result["plain"] = _rounds(cli.main, ops, spec["seconds"], spec["outdir"], digests)

    spot_dir = os.path.join(spec["outdir"], "spot")
    os.makedirs(spot_dir)
    result["spot_codes"] = _rounds(cli.main, spec["spot"], 0.0, spot_dir, {},
                                   rounds=1)["codes"]
    if spec.get("negative_control"):
        kind, n, a = spec["negative_control"]
        result["negative_control"] = {
            "shifted_passed": verification.run_point(
                FamilyKind(kind), n, a, eta_shift=1e-6).passed,
            "unshifted_passed": verification.run_point(FamilyKind(kind), n, a).passed,
        }

    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        per_kind = {}

        def traced_main(argv):
            start = time.perf_counter()
            try:
                return tracer.span("cli.main", cli.main, argv)
            finally:
                per_kind.setdefault(argv[0], []).append(time.perf_counter() - start)

        traced = _rounds(traced_main, ops, 0.0, spec["outdir"], digests,
                         rounds=len(result["plain"]["walls"]))
        tracer.uninstall()
        result["traced"] = {**traced, "trace": tracer.summary(), "main_s": per_kind}
    return result


def run_cli(trace_out: str, argv: list) -> int:
    from incevolkov import cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    rc = tracer.span("cli.main", cli.main, argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(trace_out, "w") as fh:
        json.dump({"trace": tracer.summary(), "main_s": {argv[0]: [main_s]}}, fh)
    return rc


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return run_cli(sys.argv[2], sys.argv[3:])
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    result = run_inproc(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
