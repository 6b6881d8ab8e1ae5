"""Reference computations and output checks, independent of the package.

Nothing here imports `incevolkov`.  The family table (q, spin sign, basis
window) is taken from the paper's finite-solution families; the operator of
each family is obtained by projecting the modulation ODE

    f'' + a sin(2z) (f' + i s f) + (eta - q a cos(2z)) f = 0,   z = xi/2,

onto the family's trigonometric basis by exact quadrature, so no recurrence
coefficient is copied from the program.  Each check returns a list of
problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

ODE_RESIDUAL_TOL = 1e-9          # times (1 + |eta| + a * dim)
EIGVAL_TOL = 1e-9                # times max(spread, 1)
UNIT_NORM_TOL = 1e-12
GRID_A_VALUES = (0.0, 0.5, 1.0, 5.0, 14.0, 20.0)
GRID_N_MAX = 25
KINDS = ("dirac-minus", "dirac-plus", "kg-cos-even", "kg-cos-odd",
         "kg-sin-even", "kg-sin-odd")


def family(kind: str, n: int):
    """(q, spin sign, basis function name, xi harmonics) of one family."""
    if kind == "dirac-plus":
        return 2 * n - 1, +1, "exp", np.arange(-n + 1, n + 1, dtype=float)
    if kind == "dirac-minus":
        return 2 * n - 1, -1, "exp", np.arange(-n, n, dtype=float)
    if kind == "kg-cos-even":
        return 2 * n, 0, "cos", np.arange(0, n + 1, dtype=float)
    if kind == "kg-cos-odd":
        return 2 * n - 1, 0, "cos", np.arange(0, n, dtype=float) + 0.5
    if kind == "kg-sin-odd":
        return 2 * n - 1, 0, "sin", np.arange(0, n, dtype=float) + 0.5
    if kind == "kg-sin-even":
        return 2 * n, 0, "sin", np.arange(1, n + 1, dtype=float)
    raise ValueError(f"unknown family {kind!r}")


def dim(kind: str, n: int) -> int:
    return len(family(kind, n)[3])


def free_spectrum(kind: str, n: int) -> np.ndarray:
    """Eigenvalues at a = 0: the squared z-frequencies of the basis."""
    nu = 2.0 * family(kind, n)[3]
    return np.sort(nu * nu)


def _basis(fn: str, nu: np.ndarray, z: np.ndarray):
    arg = np.multiply.outer(z, nu)
    if fn == "exp":
        B = np.exp(-1j * arg)
        return B, -1j * nu * B, -(nu * nu) * B
    if fn == "cos":
        B = np.cos(arg)
        return B, -nu * np.sin(arg), -(nu * nu) * B
    B = np.sin(arg)
    return B, nu * np.cos(arg), -(nu * nu) * B


def projected_operator(kind: str, n: int, a: float) -> np.ndarray:
    """Matrix A with eta c = A c, from the ODE projected onto the basis."""
    q, s, fn, h = family(kind, n)
    nu = 2.0 * h
    m = 4 * (int(nu.max(initial=0.0)) + 4)
    z = 2.0 * np.pi * np.arange(m) / m          # one full period in z
    B, Bp, Bpp = _basis(fn, nu, z)
    L = Bpp + a * np.sin(2 * z)[:, None] * (Bp + 1j * s * B) \
        - q * a * np.cos(2 * z)[:, None] * B
    gram = np.einsum("ki,ki->i", B.conj(), B).real
    A = -(B.conj().T @ L) / gram[:, None]
    return A.real


def symmetrized(kind: str, n: int, a: float):
    """(diagonal, off-diagonal) of the symmetric similarity of the operator."""
    A = projected_operator(kind, n, a)
    d = np.diag(A).copy()
    bond = np.diag(A, 1) * np.diag(A, -1)
    scale = max(1.0, float(np.max(np.abs(A))))
    if np.any(bond < -1e-12 * scale * scale):
        raise ValueError(f"{kind} n={n} a={a}: bond product < 0, not symmetrizable")
    return d, np.sqrt(np.clip(bond, 0.0, None))


def reference_eigvals(kind: str, n: int, a: float) -> np.ndarray:
    d, e = symmetrized(kind, n, a)
    S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.linalg.eigvalsh(S)


def mpmath_eigvals(kind: str, n: int, a: float, digits: int = 30) -> np.ndarray:
    """Eigenvalues of the same symmetric matrix at `digits` decimal digits."""
    import mpmath
    d, e = symmetrized(kind, n, a)
    S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    with mpmath.workdps(digits):
        w = mpmath.eigsy(mpmath.matrix(S.tolist()), eigvals_only=True)
        return np.sort(np.array([float(x) for x in w]))


# ---------------------------------------------------------------------------
# checks on program output
# ---------------------------------------------------------------------------

def _eigval_problems(label, etas, ref, spread=None) -> list:
    if spread is None:
        spread = float(ref[-1] - ref[0])
    tol = EIGVAL_TOL * max(spread, 1.0)
    err = float(np.max(np.abs(np.asarray(etas) - ref)))
    return [] if err <= tol else [f"{label}: eigenvalues off by {err:.3e} > {tol:.3e}"]


def check_spectrum(doc: dict, kind: str, n: int, a: float):
    """Problems of one `spectrum` JSON document, and its failing residual rows.

    Failing residual rows are returned apart: they mark the operation as
    failed rather than the benchmark as incorrect.
    """
    label = f"spectrum {kind} n={n} a={a}"
    if (doc.get("family"), doc.get("n"), doc.get("a")) != (kind, n, a):
        return [f"{label}: header names {doc.get('family')} n={doc.get('n')} "
                f"a={doc.get('a')}"], 0
    d = dim(kind, n)
    etas = np.asarray(doc["etas"], dtype=float)
    res = np.asarray(doc["residuals"], dtype=float)
    vecs = np.asarray(doc["vectors"], dtype=float)
    if len(etas) != d or len(res) != d or vecs.shape != (d, d) \
            or list(doc["k_labels"]) != list(range(1, d + 1)):
        return [f"{label}: expected {d} eigenpairs, got {len(etas)}"], 0
    problems = []
    if np.any(np.diff(etas) < 0):
        problems.append(f"{label}: eigenvalues not ascending")
    norm_err = float(np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)))
    if norm_err > UNIT_NORM_TOL:
        problems.append(f"{label}: vector norms off by {norm_err:.3e}")
    if a == 0.0:
        if not np.array_equal(etas, free_spectrum(kind, n)):
            problems.append(f"{label}: a = 0 spectrum is not the squared frequencies")
    else:
        problems += _eigval_problems(label, etas, reference_eigvals(kind, n, a))
    failing = int(np.sum(~(res < ODE_RESIDUAL_TOL * (1.0 + np.abs(etas) + a * d))))
    return problems, failing


def check_mpmath(etas, kind: str, n: int, a: float) -> list:
    return _eigval_problems(f"mpmath {kind} n={n} a={a}", etas,
                            mpmath_eigvals(kind, n, a))


def check_modes(doc: dict, kind: str, n: int, a: float, k_select) -> list:
    label = f"modes {kind} n={n} a={a}"
    xi = np.asarray(doc["xi_rad"], dtype=float)
    problems = []
    if len(xi) != 257 or np.max(np.abs(xi - np.linspace(-np.pi, np.pi, 257))) > 1e-15:
        problems.append(f"{label}: unexpected xi grid")
    if [m["k"] for m in doc["modes"]] != list(k_select):
        return problems + [f"{label}: modes {[m['k'] for m in doc['modes']]} "
                           f"instead of {list(k_select)}"]
    etas = np.array([m["eta"] for m in doc["modes"]])
    ref = free_spectrum(kind, n) if a == 0.0 else reference_eigvals(kind, n, a)
    problems += _eigval_problems(label, etas, ref[np.asarray(k_select) - 1],
                                 spread=float(ref[-1] - ref[0]))
    for m in doc["modes"]:
        dens = np.asarray(m["density"], dtype=float)
        if len(dens) != len(xi) or not np.all(np.isfinite(dens)) \
                or np.any(dens < 0) or not np.any(dens > 0):
            problems.append(f"{label}: density of k={m['k']} is not a "
                            "finite nonnegative profile")
    return problems


def check_verify(doc: dict, points):
    """Problems of one `verify` JSON document, and its failing points.

    `points` lists the expected (family, n, a) of the report, in order.
    """
    got = [(p["family"], p["n"], p["a"]) for p in doc["points"]]
    if got != list(points):
        return [f"verify: report covers {len(got)} points, not the "
                f"{len(points)} requested"], 0
    problems = [f"verify: {p['family']} n={p['n']} reports dim {p['dim']}"
                for p in doc["points"] if p["dim"] != dim(p["family"], p["n"])]
    failing = sum(1 for p in doc["points"] if not p["passed"])
    summary = doc["summary"]
    if summary["points"] != len(points) or summary["all_passed"] != (failing == 0):
        problems.append("verify: summary disagrees with the points")
    return problems, failing


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_params(doc: dict) -> list:
    a = doc["derived"]["coupling_a"]
    return [] if 13.5 <= a <= 14.3 else [f"params: coupling a = {a} outside [13.5, 14.3]"]


def check_figure1(text: str) -> list:
    rows = np.array(_csv_rows(text), dtype=float)
    xi = np.linspace(-np.pi, np.pi, 513)
    problems = []
    if rows.shape != (513, 3) or np.max(np.abs(rows[:, 0] - xi)) > 1e-15:
        return ["figure 1: unexpected table shape or xi grid"]
    for col, a in ((1, 14.0), (2, 20.0)):
        ref = np.exp(-(a / 2.0) * (np.cos(rows[:, 0]) + 1.0))
        err = float(np.max(np.abs(rows[:, col] - ref) / np.maximum(ref, 1e-300)))
        if err > 1e-12:
            problems.append(f"figure 1: density a={a} off by {err:.3e} (relative)")
    return problems


def check_figure2(text: str, n: int, a: float) -> list:
    rows = _csv_rows(text)
    problems = []
    for label, kind in (("dirac", "dirac-plus"), ("kg", "kg-cos-even")):
        ladder = [r for r in rows if r[0] == label]
        etas = np.array([float(r[2]) for r in ladder])
        if [int(r[1]) for r in ladder] != list(range(1, dim(kind, n) + 1)):
            problems.append(f"figure 2: {label} ladder has {len(ladder)} rows")
            continue
        if np.any(np.diff(etas) < 0):
            problems.append(f"figure 2: {label} ladder not ascending")
        problems += _eigval_problems(f"figure 2 {label}", etas,
                                     reference_eigvals(kind, n, a))
    return problems


def check_figure3(text: str, n: int) -> list:
    sums = {}
    for particle, k, _r, strength in _csv_rows(text):
        key = (particle, int(k))
        sums[key] = sums.get(key, 0.0) + float(strength)
    problems = []
    for label, kind in (("dirac", "dirac-plus"), ("kg", "kg-cos-even")):
        slices = sorted(k for p, k in sums if p == label)
        if slices != list(range(1, dim(kind, n) + 1)):
            problems.append(f"figure 3: {label} has {len(slices)} slices")
    worst = max((abs(v - 1.0) for v in sums.values()), default=math.inf)
    if worst > 1e-12:
        problems.append(f"figure 3: a slice sum is off 1 by {worst:.3e}")
    return problems
