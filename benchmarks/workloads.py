"""Inputs of the three workloads, made from the run's seed.

Each operation is a dict with the CLI arguments (`argv`) and what the
checker needs to judge its output (`check`, plus the point it names).
The program's own sampling seed is left at its default everywhere: the
shipped grid and its verdicts are defined at that seed, so the run's seed
varies which commands run and in what order, never the oracles' samples.
"""

from __future__ import annotations

import random

from oracle import GRID_A_VALUES, GRID_N_MAX, KINDS, dim

LARGE_KINDS = ("dirac-plus", "kg-cos-even", "kg-sin-odd")
LARGE_N = (40, 80, 120, 160, 200)
LARGE_A = (1.0, 14.0, 50.0)
CONFIG_COMMANDS = (
    (["params", "--config", "configs/reference.cfg"], "params", None),
    (["figure", "1", "--config", "configs/figure1.cfg"], "figure1", "figure1.csv"),
    (["figure", "2", "--config", "configs/figure2.cfg"], "figure2", "figure2.csv"),
    (["figure", "3", "--config", "configs/figure3.cfg"], "figure3", "figure3.csv"),
)


def _spectrum(kind, n, a):
    return {"argv": ["spectrum", "--family", kind, "--n", str(n), "--a", repr(a),
                     "--format", "json"],
            "check": "spectrum", "point": (kind, n, a)}


def cli_mix(seed: int, smoke: bool = False) -> list:
    """The four shipped configs plus seeded spectrum, modes and one-point
    verify calls over all six families, n <= 25 and the grid couplings.

    Every family and every grid coupling appears twice among the spectrum
    calls and twice among the modes calls; 8 verify calls pick their points
    at random.  Smoke mode keeps one call of each kind.
    """
    rng = random.Random(f"cli-mix/{seed}")
    ops = [{"argv": argv, "check": check, "file": path}
           for argv, check, path in CONFIG_COMMANDS]
    repeats = 1 if smoke else 2
    for command in ("spectrum", "modes"):
        kinds = list(KINDS) * repeats
        couplings = list(GRID_A_VALUES) * repeats
        rng.shuffle(kinds)
        rng.shuffle(couplings)
        count = 1 if smoke else len(kinds)
        for kind, a in zip(kinds[:count], couplings[:count]):
            n = rng.randint(1, GRID_N_MAX)
            if command == "spectrum":
                ops.append(_spectrum(kind, n, a))
                continue
            d = dim(kind, n)
            ks = sorted(rng.sample(range(1, d + 1), min(3, d)))
            ops.append({"argv": ["modes", "--family", kind, "--n", str(n),
                                 "--a", repr(a), "--k-select",
                                 ",".join(map(str, ks)), "--format", "json"],
                        "check": "modes", "point": (kind, n, a), "k_select": ks})
    for _ in range(1 if smoke else 8):
        kind = rng.choice(KINDS)
        n = rng.randint(1, GRID_N_MAX)
        a = rng.choice(GRID_A_VALUES)
        ops.append({"argv": ["verify", "--family", kind, "--n", str(n),
                             "--a", repr(a)],
                    "check": "verify", "points": [(kind, n, a)]})
    rng.shuffle(ops)
    return ops


def verify_grid(seed: int, smoke: bool = False) -> dict:
    """One `verify --all` over the shipped 900-point grid (150 points at
    a = 1 in smoke mode), plus a seeded negative-control point and three
    seeded small grid points whose spectra are checked against mpmath."""
    rng = random.Random(f"verify-grid/{seed}")
    a_values = (1.0,) if smoke else GRID_A_VALUES
    argv = ["verify", "--all"] + (["--a", "1.0"] if smoke else [])
    small = [p for p in _grid(a_values) if p[2] > 0 and dim(p[0], p[1]) <= 40]
    return {
        "ops": [{"argv": argv, "check": "verify", "points": _grid(a_values)}],
        "negative_control": rng.choice([p for p in _grid(a_values) if p[2] > 0]),
        "spot_checks": [_spectrum(*p) for p in rng.sample(small, 3)],
    }


def _grid(a_values) -> list:
    return [(kind, n, float(a)) for kind in KINDS
            for n in range(1, GRID_N_MAX + 1) for a in a_values]


def large_spectra(seed: int, smoke: bool = False) -> list:
    """45 `spectrum` JSON calls: three families x n in LARGE_N x a in
    LARGE_A, in seeded order.  Smoke mode: one n = 40 point per family."""
    rng = random.Random(f"large-spectra/{seed}")
    if smoke:
        points = [("dirac-plus", 40, 14.0), ("kg-cos-even", 40, 50.0),
                  ("kg-sin-odd", 40, 1.0)]
    else:
        points = [(k, n, a) for k in LARGE_KINDS for n in LARGE_N for a in LARGE_A]
    rng.shuffle(points)
    return [_spectrum(*p) for p in points]
