"""Independent verification layer.

Three checks, none sharing numerical machinery with the eigensolver
(`spectra.solve_spectra`), make the verdict:

  * ODE residual (`residual.attach_residuals`, `_batch_residual_maxima`):
    plugs every (eta, coefficient vector) pair of an operator back into
    the original modulation ODE and bounds the residual at every z by the
    l1 norm of its exact Fourier coefficients, in blocks of at most 64
    modes.  The commands that print spectra run it alone, so it lives in
    the residual module; this module imports it from there.
    `benchmarks/oracle.py` restates the family table.
  * sturm_crosscheck: Sturm counts on the symmetrized matrix, from the
    LAPACK-free leading-minor recurrence `minor_ratios`.  Two counts per
    eta enclose its eigenvalue within a radius, the smallest of a doubling
    ladder that holds (`certified_radii`): a few ulps for the solver's
    etas, and within a factor of two of the true distance for a wrong eta.
    A count in floating point is the exact count of a matrix a few ulps
    away (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995), so the radius
    is a proof, not a second estimate.
  * pde_residual: assembles the full spacetime wave
    Psi(t,x,y) = modulation(xi) * exp{+i [p - (k.p) k] . x}, xi = k.x,
    and applies the gauge-covariant wave operator with exact derivatives,
    gated by the ODE tolerance carried through the reduction plus a
    running-error bound.  This is the end-to-end test that the reduction
    chain from the wave equation to the tridiagonal eigenproblem is
    consistent, including every sign choice.

dense_oracle_crosscheck, the general nonsymmetric dense eigensolver on the
unsymmetrized operator with a Newton polish on the same recurrence, is a
reference that no command runs: the tests compare it with the solver, and
it adds no detection that the Sturm certificate lacks.

The solve and the Sturm check take a stack of equal-dimension operators
and run over it at once, after one stacked bond check
(`spectra.symmetrize_stack`), which an `operators.OperatorStack` keeps
for both; the ODE residual takes one family's modes at several
couplings, and the spacetime check the stencil, the bases on it and
points of one result dtype.  Each operator and point gets the bits it
gets alone.  A round (`_check_round`) builds one stencil, evaluates each
of the five basis sets of the family table once on it, and gives every
family its columns of them (`families.shared_bases`).  It then groups its
points by dimension, and a group (`_check_group`) runs as one stack per
family: one build (`operators.build_stack`), one solve that gives one
(B, dim) etas array, which the ODE, Sturm and spacetime checks all judge,
one ODE residual call per family, one Sturm pass that returns each
operator's radius with its gate, and one spacetime batch per result
dtype.  `run_grid` is one round over the grid, and `run_point` the same
path with a round of one.

No group reads another's results, so a round of two or more groups on a
host that gives it two or more CPUs, with numpy's bundled OpenBLAS pinned
to one thread (`forking.may_fork`), splits them into two shares of about
equal cost: this process runs one and a child forked by `forking.child`,
after the shared arrays are built, runs the other and sends its reports
back pickled.  Both run the same `_check_group` on the same arrays, and
pickle keeps every float's bits, so each report and the first error in
group order are the ones a single process gives.  A round of one group
(`run_point`), on one CPU, or under a BLAS whose threads cannot be pinned
stays in one process.

Each point's report holds one object per check, keyed by the check's name
in `CHECKS` order; the summary's maxima and the names a failing point
lists come from the same table.

Sign conventions verified by the PDE check (electron, charge coupling
eps_c * A0 = -a/4 in the dimensionless units hbar = c = 1, k_p = 1):
metric (+,-,-,-), vector potential A = e_x A0 cos xi, de Broglie phase
exp(+i p~.x), transverse quantization px = (q+1)/2 > 0, spin term
-i s (a/4) sin(xi) with s = +1 for dirac-plus.  The printed-phase
alternative exp(-i p~.x) flips px to -(q+1)/2; the two are related by
spatial reflection and give identical spectra and densities.
"""

from __future__ import annotations

import contextlib
import math
import pickle
import random
from dataclasses import dataclass

import numpy as np

from . import forking
from .constants import SAMPLING_SEED
from .errors import InputError, StructuralError
from .families import ALL_KINDS, FamilyKind, SolutionFamily, shared_bases
from .operators import TridiagonalOperator, build_stack, refuse_past_solve_limit
from .physparams import DeBroglieMomentum
from .residual import ODE_RESIDUAL_TOL, _batch_residual_maxima
from .serialize import format_number
from .spectra import min_relative_gaps, solve_spectra, symmetrize_stack

__all__ = [
    "SAMPLING_SEED", "DENSE_IMAG_TOL", "ORACLE_AGREEMENT_TOL", "seeded_angles",
    "minor_ratios", "sturm_counts", "gershgorin_bounds", "certified_radii",
    "dense_oracle_crosscheck", "sturm_crosscheck", "momentum_for_mode",
    "PdeStencil", "pde_stencil", "PdeResidualReport", "pde_residual",
    "CHECKS", "PointReport", "VerificationReport", "run_point", "run_grid",
    "DEFAULT_GRID_A_VALUES", "DEFAULT_GRID_N_MAX",
]

DENSE_IMAG_TOL = 1e-10
DENSE_MAX_DIM = 200            # range limit of the dense reference
ORACLE_AGREEMENT_TOL = 1e-9     # floor of the Sturm gate (`sturm_crosscheck`)
_AGREEMENT_ULPS = 16
# shifts per Sturm counting slice: 128 KiB per float64 temporary
_COUNT_SLICE = 2 ** 14
# the radii, in ulps of a matrix's largest Gershgorin bound, of the first
# pass of `certified_radii`; the widest is the solver's share of the
# agreement gate
_CERTIFY_ULPS = (1, 2, 4, 8)
PDE_POINTS = 64                 # seeded (t, x, y) points of a spacetime stencil
DEFAULT_GRID_A_VALUES = (0.0, 0.5, 1.0, 5.0, 14.0, 20.0)
DEFAULT_GRID_N_MAX = 25
DEFAULT_GRID_N_M = 0.7685453911282961   # refractive index of the spacetime check


def _residual_values_compensated(family: SolutionFamily, a: float, eta: float,
                                 c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The ODE residual of one mode at the samples z, each sample's terms summed exactly by math.fsum.

    Not part of the verdict: the tests hold the residual policy's bound,
    the l1 norm of the residual's Fourier coefficients, above it.
    """
    B, Bp, Bpp = family.basis(z, derivatives=2)
    q = family.q
    s = family.spin_sign
    sin2z = np.sin(2.0 * z)[:, None]
    cos2z = np.cos(2.0 * z)[:, None]
    terms = c * (Bpp + a * sin2z * (Bp + 1j * s * B) + (eta - q * a * cos2z) * B)
    out = np.empty(len(z), dtype=complex)
    out.real = [math.fsum(row) for row in terms.real.tolist()]
    out.imag = [math.fsum(row) for row in terms.imag.tolist()]
    return out


# ---------------------------------------------------------------------------
# Sturm certificate
# ---------------------------------------------------------------------------

def _pivmin(b):
    """(B, 1): each matrix's pivmin, tiny * 1e4 * max(1, max |b|), as in LAPACK dstebz."""
    return (np.maximum(np.abs(b).max(axis=1, initial=0.0), 1.0)
            * np.finfo(float).tiny * 1e4)[:, None]


def minor_ratios(d, b, x):
    """Yield q_i = p_i / p_{i-1}, the leading-minor ratios of T - x I, by row.

    A stack of B equal-dimension matrices T with diagonals d, shape
    (B, dim), and bond products b = super * sub, shape (B, dim - 1), is
    shifted by x, shape (B, m): q_0 = d_0 - x and q_i = d_i - x - b_{i-1} /
    q_{i-1}, each of shape (B, m).  Every element sees the arithmetic of a
    lone matrix, so a matrix gets the same bits in any stack and at any m.
    Ratios are yielded unclamped; as a divisor, one below its matrix's
    `_pivmin` in magnitude becomes -pivmin, as in LAPACK dstebz.  A
    matrix's row coefficients broadcast over its shifts, so the working
    memory is a few (B, m) arrays at any dim.
    """
    pivmin = _pivmin(b)
    neg_pivmin = -pivmin
    largest_pivmin = pivmin.max()
    q = d[:, :1] - x
    yield q
    for i in range(1, d.shape[1]):
        # a clamp is rare: one reduction over the stack, blind to NaN ratios,
        # decides whether any is due
        if np.fmin.reduce(np.abs(q), axis=None, initial=np.inf) < largest_pivmin:
            q = np.where(np.abs(q) < pivmin, neg_pivmin, q)
        div = b[:, i - 1:i] / q
        q = d[:, i:i + 1] - x         # one (B, m) temporary fewer than d - x - div
        q -= div
        yield q


def sturm_counts(d, b, x):
    """The number of eigenvalues below each shift x[:, j], shape (B, m).

    d, b and x are as in `minor_ratios`.  A ratio counts as negative when
    q < 0 or |q| < pivmin, that is q < pivmin: the pivot dstebz clamps to
    -pivmin counts, so an exact zero pivot cannot hide an eigenvalue and
    the count is monotone in the shift (Kahan, "Accurate eigenvalues of a
    symmetric tri-diagonal matrix", 1966).  Runs in column slices of at
    most _COUNT_SLICE shifts, so the recurrence's temporaries stay a few
    small arrays at any m.
    """
    pivmin = _pivmin(b)
    counts = np.empty(x.shape, dtype=np.intp)
    width = max(1, _COUNT_SLICE // len(x))
    for start in range(0, x.shape[1], width):
        cols = slice(start, start + width)
        count = np.zeros(x[:, cols].shape, dtype=np.intp)
        for q in minor_ratios(d, b, x[:, cols]):
            count += q < pivmin
        counts[:, cols] = count
    return counts


def gershgorin_bounds(d: np.ndarray, e: np.ndarray):
    """(lo, hi), shape (B,) each: the Gershgorin bounds of stacked symmetric tridiagonals.

    d has shape (B, dim) and e (B, dim - 1).  Every eigenvalue lies in
    [lo, hi], and max(|lo|, |hi|) is the matrix's infinity norm.
    """
    eabs = np.abs(e)
    radius = np.zeros_like(d)           # |e_(i-1)| + |e_i|, a missing neighbour 0
    radius[:, 1:] += eabs
    radius[:, :-1] += eabs
    return np.min(d - radius, axis=1), np.max(d + radius, axis=1)


def _largest_bound(d, e):
    """(B,): max(|lo|, |hi|) of `gershgorin_bounds`, each matrix's infinity norm."""
    lo, hi = gershgorin_bounds(d, e)
    return np.maximum(np.abs(lo), np.abs(hi))


def certified_radii(d, b, etas, bound=None):
    """Per matrix, the smallest radius within which Sturm counts enclose every eta.

    d and b are as in `minor_ratios`, and etas, shape (B, dim), are sorted
    estimates of the eigenvalues.  bound, shape (B,), is each matrix's
    max|Gershgorin bound| (`gershgorin_bounds` of d and sqrt(b)), when the
    caller has it.  A radius r encloses them when, for
    every k, count(eta_k - r) <= k - 1 and count(eta_k + r) >= k: the k-th
    eigenvalue then lies in [eta_k - r, eta_k + r], since the count is
    monotone in its shift (the shifts are rounded to doubles, which can
    widen the enclosure by half an ulp of eta_k).

    The first `sturm_counts` pass tries r = c eps B, with c in
    _CERTIFY_ULPS and B = max|Gershgorin bound|.  A matrix that it leaves
    uncertified, with finite etas, gets a second pass over the doubling
    ladder r = 2^j eps B, j >= 4 (eps B raised to at least pivmin, the
    count's resolution), up to the first radius past max|eta| + B, within
    which every eigenvalue lies of its eta.  A matrix gets the smallest r
    of either ladder that encloses every eta; as the rung below failed, r
    is at most twice the largest |eigenvalue - eta_k|.  Non-finite etas
    give inf.
    """
    if bound is None:
        bound = _largest_bound(d, np.sqrt(b))
    radii = _first_enclosing(
        d, b, etas, bound[:, None] * (np.array(_CERTIFY_ULPS) * np.finfo(float).eps))
    rows = np.flatnonzero(np.isinf(radii) & np.isfinite(etas).all(axis=1))
    if len(rows):
        top = np.minimum(np.abs(etas[rows]).max(axis=1) + bound[rows], np.finfo(float).max)
        unit = np.maximum(bound[rows] * np.finfo(float).eps, _pivmin(b[rows])[:, 0])
        ladder = [2 * _CERTIFY_ULPS[-1] * unit]
        while np.any(ladder[-1] <= top):
            ladder.append(2.0 * ladder[-1])
        radii[rows] = _first_enclosing(d[rows], b[rows], etas[rows], np.stack(ladder, axis=1))
    return radii


def _first_enclosing(d, b, etas, radii):
    """Per matrix, the first of its ascending radii, shape (B, L), that encloses every eta, or inf.

    All B * L * 2 * dim shifts run in one `sturm_counts` pass.
    """
    batch, nd = d.shape
    sides = np.array([-1.0, 1.0])[:, None]      # eta - r and eta + r
    shifts = etas[:, None, None, :] + sides * radii[:, :, None, None]   # (B, L, 2, dim)
    counts = sturm_counts(d, b, shifts.reshape(batch, -1)).reshape(shifts.shape)
    ks = np.arange(1, nd + 1)
    enclosed = ((counts[:, :, 0] < ks) & (counts[:, :, 1] >= ks)).all(axis=2)
    first = np.argmax(enclosed, axis=1)
    return np.where(enclosed.any(axis=1), radii[np.arange(batch), first], np.inf)


def sturm_crosscheck(operators, etas):
    """Per operator, (radius, gate): Sturm counts enclose each eigenvalue within radius of its eta.

    The operators share one dimension, and etas, shape (B, dim), are the
    eigenvalues to judge.  One stacked bond check (`symmetrize_stack`)
    gives the diagonals, off-diagonals and bond products super * sub, or
    refuses the first bond that cannot be symmetrized; an `OperatorStack`
    that the solve symmetrized already gives its kept result.  Both the
    radius and the gate come from that stack, and from one Gershgorin
    bound per operator.

    An operator of dim 1 reports |entry - eta|, exactly, since its
    eigenvalue is its entry.  Every other operator reports
    `certified_radii`: at most 8 eps B for etas within the solver's share
    of the gate, and otherwise between max |eigenvalue - eta| and twice
    that (inf for a non-finite eta).

    The gate is max(ORACLE_AGREEMENT_TOL, 16 eps B), with B = max|Gershgorin
    bound| of the symmetrized matrix S, its infinity norm, so B >= ||S||_2.
    By Weyl's theorem a symmetric perturbation E moves no eigenvalue by
    more than ||E||_2.  The primary solver is backward stable, so its etas
    are exact for some S + E with ||E||_2 a small multiple of eps ||S||_2
    (8 eps B is allowed), and the certificate's widest first-pass radius
    is 8 eps B: c = 8 + 8 = 16.  An eta off by e past 8 eps B reports a
    radius between e and 2e, so one off by more than half the gate can
    fail.  The tests judge the dense reference's polished values by the
    same gate.  On the shipped grid eps B is at most 5.9e-13 (kg-cos-even
    n = 25, a = 20), so the gate is the 1e-9 floor there; it grows with
    the eigenvalues only far past the grid (2.1e136 at dirac-plus n = 3,
    a = 1e150).
    """
    d, off, _, b = symmetrize_stack(operators)
    bound = _largest_bound(d, off)
    gates = np.maximum(ORACLE_AGREEMENT_TOL, _AGREEMENT_ULPS * np.finfo(float).eps * bound)
    if d.shape[1] == 1:
        return np.abs(d[:, 0] - etas[:, 0]), gates
    return certified_radii(d, b, etas, bound), gates


# ---------------------------------------------------------------------------
# dense reference: no command runs it
# ---------------------------------------------------------------------------

def _charpoly_newton_polish(d: np.ndarray, b: np.ndarray, w: np.ndarray,
                            steps: int = 3) -> np.ndarray:
    """Sharpen all eigenvalue estimates of a stack at once by Newton on det(T - lam I).

    d (B, dim) and b = super * sub (B, dim - 1) describe B equal-dimension
    operators; w (B, dim) holds their estimates.  From the ratios
    q_i = p_i / p_{i-1} of `minor_ratios`, u_i = p_i'/p_i is
    u_i = (-1 + (d_i - lam) u_{i-1} - b_{i-1} u_{i-2} / q_{i-1}) / q_i and the
    update is lam -= 1/u_n.  An estimate whose u_n is zero or not finite, or
    whose step exceeds max(1, 1e-9 |w|) (a root jump, judged relative to
    the eigenvalue), keeps its value from then on.
    Removes the conditioning error the general dense solver picks up on
    strongly skewed operators; no LAPACK involved.
    """
    d_rows = d.T[:, :, None]
    b_rows = b.T[:, :, None]
    lam = w.copy()
    active = np.ones(lam.shape, dtype=bool)
    cap = np.maximum(1.0, 1e-9 * np.abs(w))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            ratios = minor_ratios(d, b, lam)
            q_prev = next(ratios)
            u_prev, u = 0.0, -1.0 / q_prev
            for i, q in enumerate(ratios, start=1):
                u_prev, u = u, (-1.0 + (d_rows[i] - lam) * u
                                - b_rows[i - 1] * u_prev / q_prev) / q
                q_prev = q
            step = 1.0 / u
            active &= np.isfinite(u) & (np.abs(step) <= cap)
            lam = np.where(active, lam - step, lam)
    return lam


def _describe(T: TridiagonalOperator) -> str:
    return f"{T.family.kind.value} n={T.family.n} a={format_number(T.a)}"


def dense_oracle_crosscheck(operators, etas) -> np.ndarray:
    """Per operator, max |sorted dense eigenvalues - etas|; raises on a complex spectrum.

    operators is a sequence of equal-dimension operators and etas the
    matching sequence of eigenvalue arrays.
    The dense path (general nonsymmetric eigensolver on each embedded
    matrix, plus a characteristic-polynomial Newton polish run over the
    whole stack) shares nothing with the symmetrize-then-tridiagonal route.
    Realness is asserted on the raw dense eigenvalues, before polishing.
    No command runs it: the tests use it as a second eigenvalue reference,
    and `benchmarks/tracing.py` names it as a traced layer.
    """
    family, dim = operators[0].family, operators[0].dim
    if dim > DENSE_MAX_DIM:
        raise InputError(
            f"{family.kind.value} n = {family.n} gives dimension {dim}, past "
            f"the range limit of the dense cross-check (dim <= {DENSE_MAX_DIM})")
    if len({T.dim for T in operators}) != 1:
        raise InputError("the dense cross-check needs operators of one dimension")
    w = np.linalg.eigvals(np.stack([T.to_dense() for T in operators]))
    for T, max_imag in zip(operators, np.max(np.abs(w.imag), axis=1)):
        if max_imag > DENSE_IMAG_TOL:
            raise StructuralError(
                f"{_describe(T)}: dense eigenvalues have imaginary parts up to "
                f"{max_imag:.3e} (> {DENSE_IMAG_TOL}); recurrence or "
                "symmetrization is wrong")
    d = np.stack([T.diag for T in operators])
    b = np.stack([T.super_ * T.sub for T in operators])
    polished = _charpoly_newton_polish(d, b, np.sort(w.real, axis=1))
    return np.max(np.abs(np.sort(polished, axis=1) - etas), axis=1)


# ---------------------------------------------------------------------------
# momentum construction for the spacetime check
# ---------------------------------------------------------------------------

def momentum_for_mode(family: SolutionFamily, eta: float,
                      n_m: float) -> DeBroglieMomentum:
    """Real on-shell four-momentum for a mode with eta >= 0.

    Takes py = pz = 0, so k.p = k0 p0 fixes p0 = lam * sqrt(eta)/2, and the
    dressed mass-shell value kappa_star_sq = p^2 follows rather than being
    imposed; for the low-lying eta of these finite solutions it is usually
    negative (no real massive particle carries them), which is fine for the
    consistency check since the mass parameter enters the wave operator
    only as a real constant.
    """
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    if eta < 0:
        raise InputError(
            f"eta = {eta} is evanescent (negative); no real momentum exists")
    lam = math.sqrt(1.0 - n_m * n_m)
    p0 = lam * math.sqrt(eta) / 2.0
    px = family.px_over_kp
    return DeBroglieMomentum(p0=p0, px=px, py=0.0, pz=0.0, eta=eta,
                             kappa_star_sq=p0 * p0 - px * px)


# ---------------------------------------------------------------------------
# exact residual of the full scalar wave equation
# ---------------------------------------------------------------------------

def seeded_angles(seed: int, count: int) -> np.ndarray:
    """`count` angles in [0, 2 pi): 2 pi * random.Random(seed).random(), drawn in turn.

    The standard library's Mersenne Twister (Matsumoto & Nishimura, ACM
    TOMACS 8, 1998), seeded with the integer itself.  Python guarantees that
    `random()` gives the same sequence for the same seed across versions
    (the `random` module's "Notes on Reproducibility"), and an integer seed
    does not pass through string hashing, so PYTHONHASHSEED does not move
    the angles.
    """
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return np.array([2.0 * math.pi * rng.random() for _ in range(count)])


@dataclass(frozen=True)
class PdeResidualReport:
    max_residual: float              # max |res| over the stencil's points
    max_residual_over_gate: float    # max |res| / gate over them

    @property
    def passed(self) -> bool:
        """Each point within its gate; NaN (a non-finite residual or gate) fails."""
        return self.max_residual_over_gate <= 1.0


@dataclass(frozen=True, eq=False)
class PdeStencil:
    """The points of the spacetime check: z = xi/2, sin xi and cos xi.

    PDE_POINTS seeded points (t, x, y) in one wave period; Psi = M(xi) P
    reads x only in its phase P.  None of it depends on the family, a or
    the mode, so one stencil serves every point at this n_m and seed.
    """

    kvec: np.ndarray             # (t, x, y) components of k, k^2 = 1
    z: np.ndarray
    sin: np.ndarray
    cos: np.ndarray


def pde_stencil(n_m: float, seed: int = SAMPLING_SEED) -> PdeStencil:
    """The points of the spacetime check at refractive index n_m."""
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    lam = math.sqrt(1.0 - n_m * n_m)
    k0 = 1.0 / lam                       # k^2 = k0^2 (1 - n_m^2) = 1
    kvec = np.array([k0, 0.0, k0 * n_m])
    t, _, y = seeded_angles(seed, 3 * PDE_POINTS).reshape(PDE_POINTS, 3).T
    xi = kvec[0] * t - kvec[2] * y
    return PdeStencil(kvec=kvec, z=xi / 2.0, sin=np.sin(xi), cos=np.cos(xi))


def _ptilde(stencil: PdeStencil, family: SolutionFamily, c: np.ndarray,
            momentum: DeBroglieMomentum, a: float) -> np.ndarray:
    """p~ = p - (k.p) k of one point, after checking its preconditions."""
    if len(c) != family.dim:
        raise InputError("coefficient length does not match family dimension")
    if momentum.pz != 0.0:
        raise InputError("stencils cover (ct, x, y); pz must be 0")
    if not momentum.on_shell:
        raise InputError(
            f"momentum off the dressed mass shell: p^2 = {momentum.p_squared!r}"
            f" vs kappa_star_sq = {momentum.kappa_star_sq!r}")
    kvec = stencil.kvec
    p = np.array([momentum.p0, momentum.px, momentum.py])
    k_dot_p = kvec[0] * p[0] - kvec[2] * p[2]
    eta_implied = 4.0 * k_dot_p * k_dot_p
    if not math.isclose(eta_implied, momentum.eta, rel_tol=1e-9, abs_tol=1e-9):
        raise InputError(
            f"momentum implies eta = {eta_implied!r}, got {momentum.eta!r}")
    if a > 0 and not math.isclose(momentum.px, family.px_over_kp,
                                  rel_tol=1e-12, abs_tol=1e-12):
        raise InputError(
            f"px = {momentum.px} violates the family quantization "
            f"{family.px_over_kp} at a > 0")
    return p - k_dot_p * kvec            # k.ptil = 0 since k^2 = 1


def pde_residual(stencil, bases, families, coefficients, momenta, couplings) -> list:
    """Exact residuals of the covariant wave equation, one report per point.

    Units hbar = c = 1, k_p = 1.  Point i builds Psi = M(xi) P from the
    modulation M = g(xi/2) E(xi), g = B c (families[i], coefficients[i]),
    E = exp(-(a/4) cos xi), and the de Broglie phase P of p~ = p - (k.p) k,
    p from momenta[i].  The derivatives are exact: g' = B'c/2, g'' = B''c/4,
    E' = (a/4) sin xi E, E'' = ((a/4) cos xi + (a/4)^2 sin^2 xi) E and, as
    xi = k0 t - k2 y, d_tt Psi = (k0^2 M'' + 2i pt k0 M' - pt^2 M) P, d_yy
    Psi the same in k2 and py, d_xx Psi = -px^2 M P, d_x Psi = -i px M P.
    res is the gauge-covariant operator at couplings[i] (eps_c A0 = -a/4,
    the electron sign convention) on Psi, over P (|P| = 1).  Off-shell or
    inconsistent momenta are precondition errors.

    The gate is derived.  As k^2 = 1, k.p~ = 0, p~^2 = kappa*^2 - eta/4
    and px = (q+1)/2, res = -(E/4) R(xi/2), R the modulation ODE's residual
    of g at eta, so the ODE tolerance allows (E/4) ODE_RESIDUAL_TOL (1 +
    |eta| + a dim).  Rounding adds at most gamma_N = N u / (1 - N u),
    u = eps/2, times the expression of res in absolute values, |B||c| for
    each B c (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, ch. 3), with N = 2 (dim + 13): on any path an entry of B''
    or B' rounds once, its product with c dim times, and the rest at most
    12 times (g''E, two sums into M'', the product with k0^2, two sums into
    d_tt, two into d_tt - d_xx - d_yy, four terms after it); the factor 2
    covers complex products (Higham's Lemma 3.5) and the ulps by which the
    computed k, p~, sin xi and cos xi miss those identities.  A point
    passes when |res| <= gate at each of the stencil's points; a
    non-finite residual or gate fails.

    bases maps each family to [B, B', B''] at the stencil's points (its
    own, or its columns of `families.shared_bases`).  Per point, one
    matrix-vector product per basis array, then elementwise arithmetic on
    (points, PDE_POINTS) arrays, so every point gets the bits it gets
    alone; that needs one result dtype of basis and coefficients per call
    (an InputError otherwise).
    """
    families, momenta, couplings = list(families), list(momenta), list(couplings)
    cs = [np.asarray(c) for c in coefficients]
    if not families:
        return []
    ptil = np.array([_ptilde(stencil, fam, c, mom, a) for fam, c, mom, a
                     in zip(families, cs, momenta, couplings, strict=True)])
    if len({np.result_type(bases[fam][0], c) for fam, c in zip(families, cs)}) != 1:
        raise InputError("a spacetime batch needs one result dtype "
                         "of basis and coefficients")

    def column(values, dtype=float):
        return np.array(values, dtype=dtype)[:, None]

    def modulation(E1, E2, absolute=False):
        """M, M' and M'' of each point; with absolute, |B||c| stands for each B c."""
        if absolute:        # one np.abs per basis array of each family
            own = {fam: [np.abs(v) for v in bases[fam]] for fam in dict.fromkeys(families)}
            pairs = [(own[fam], np.abs(c)) for fam, c in zip(families, cs)]
        else:
            pairs = [(bases[fam], c) for fam, c in zip(families, cs)]
        g, g1, g2 = (np.stack([np.matmul(basis[k], c) for basis, c in pairs]) * scale
                     for k, scale in ((0, 1.0), (1, 0.5), (2, 0.25)))
        return g * E, g1 * E + g * E1, g2 * E + 2.0 * g1 * E1 + g * E2

    k0, k2 = stencil.kvec[0], stencil.kvec[2]
    pt, px, py = ptil[:, :1], ptil[:, 1:2], ptil[:, 2:]
    # per-point scalars, each from the expression a lone point uses;
    # eps_c A0 = -a/4 is the electron sign convention
    quarter_a = column([a / 4.0 for a in couplings])
    two_i_eps_a0 = column([2j * (-a / 4.0) for a in couplings], complex)
    spin_coef = 1j * column([fam.spin_sign for fam in families]) * quarter_a
    allowed = column([0.25 * ODE_RESIDUAL_TOL * (1.0 + abs(mom.eta) + abs(a) * fam.dim)
                      for fam, mom, a in zip(families, momenta, couplings)])
    n_u = column([2 * (fam.dim + 13) * np.finfo(float).eps / 2.0 for fam in families])
    sin, cos = stencil.sin, stencil.cos

    # past a ~ 2800, e^(a/4) leaves double range, and past a ~ 5e154 so
    # does (a/4)^2: the residual or the gate comes out non-finite and
    # fails, which is the report, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_sq_16 = quarter_a * quarter_a
        kappa_sq = column([mom.kappa_star_sq for mom in momenta]) - a_sq_16
        E = np.exp(-quarter_a * cos)
        M, M1, M2 = modulation(quarter_a * sin * E,
                               (quarter_a * cos + (quarter_a * sin) ** 2) * E)
        dtt = k0 * k0 * M2 + 2j * pt * k0 * M1 - pt * pt * M
        dyy = k2 * k2 * M2 + 2j * py * k2 * M1 - py * py * M
        dxx = -px * px * M
        dx1 = -1j * px * M
        res = (-(dtt - dxx - dyy)
               - two_i_eps_a0 * cos * dx1
               - a_sq_16 * cos ** 2 * M
               - kappa_sq * M
               - spin_coef * sin * M)

        # the same expression in absolute values
        M, M1, M2 = modulation(np.abs(quarter_a * sin) * E,
                               (np.abs(quarter_a * cos) + (quarter_a * sin) ** 2) * E,
                               absolute=True)
        bound = ((k0 * k0 + k2 * k2) * M2
                 + 2.0 * (np.abs(pt) * k0 + np.abs(py) * k2) * M1
                 + (pt * pt + py * py + px * px + np.abs(two_i_eps_a0 * cos * px)
                    + a_sq_16 * cos ** 2 + np.abs(kappa_sq) + np.abs(spin_coef * sin)) * M)
        gate = allowed * E + n_u / (1.0 - n_u) * bound
        ratio = np.abs(res) / np.where(np.isfinite(gate), gate, np.nan)
    return [PdeResidualReport(max_residual=r, max_residual_over_gate=o) for r, o
            in zip(np.max(np.abs(res), axis=1).tolist(), np.max(ratio, axis=1).tolist())]


# `benchmarks/tracing.py` traces the spacetime layer under this name (its
# TARGETS); without it, a traced run raises LookupError
pde_residual_fd = pde_residual


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------

# One row per check, in report order: its name, which keys its JSON object
# and is its word on a FAIL line, then the field of that object that the
# summary maximizes over the points and the summary key it goes under
# (None, None: the check has no summary).
CHECKS = (
    ("ode", "max_residual_over_scale", "max_ode_residual_over_scale"),
    ("sturm", "discrepancy", "max_sturm_discrepancy"),
    ("pde", None, None),
)


@dataclass(frozen=True)
class PointReport:
    """All checks for one (family, n, a) grid point."""

    kind: str
    n: int
    a: float
    dim: int
    checks: dict                 # CHECKS name -> its JSON fields, `passed` last
    min_relative_gap: float
    note: str = ""

    @property
    def failed_checks(self) -> list:
        """Names of the checks this point failed, in `CHECKS` order."""
        return [name for name, _, _ in CHECKS if not self.checks[name]["passed"]]

    @property
    def passed(self) -> bool:
        return not self.failed_checks


@dataclass(frozen=True)
class VerificationReport:
    points: tuple
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.points)

    def failures(self) -> list:
        return [p for p in self.points if not p.passed]

    def summary(self) -> dict:
        """Point count, verdict, then each `CHECKS` summary key's maximum over the points."""
        return {"points": len(self.points), "all_passed": self.all_passed,
                **{key: max((p.checks[name][field] for p in self.points), default=0.0)
                   for name, field, key in CHECKS if key is not None}}


def _pde_checks(families, points, etas, vectors, spacetime) -> list:
    """(residual over gate, residual, passed, notes) of the spacetime check of each point of a group.

    Each point's check runs on its highest non-evanescent mode.  spacetime
    holds the round's stencil and its bases on it, which the points share.
    The points run in one `pde_residual` batch per result dtype of the
    shared basis and the coefficients: cast to complex to stack them with
    dirac points, real (KG) modulations would take complex products, which
    round differently.
    """
    stencil, bases = spacetime
    results = [None] * len(points)
    batches = {}
    for i, (fam, (_, _, a), point_etas, point_vectors) in enumerate(
            zip(families, points, etas, vectors)):
        propagating = np.nonzero(point_etas >= 0.0)[0]
        if len(propagating) == 0:
            # e.g. the one-dimensional sin-type operator at strong coupling:
            # every eta is negative, no real momentum carries the mode
            results[i] = (math.nan, math.nan, True,
                          ["all modes evanescent (eta < 0): spacetime check not applicable"])
            continue
        top = int(propagating[-1])
        mom = momentum_for_mode(fam, float(point_etas[top]), DEFAULT_GRID_N_M)
        c = point_vectors[:, top]
        batches.setdefault(np.result_type(bases[fam][0], c), []).append((i, fam, c, mom, a))
    for batch in batches.values():
        index, *args = zip(*batch)
        for i, pde in zip(index, pde_residual(stencil, bases, *args)):
            results[i] = (pde.max_residual_over_gate, pde.max_residual, pde.passed, [])
    return results


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    Verify's matrices are small (dim <= 50 on the shipped grid) and each
    LAPACK or BLAS call is short.  With two threads, OpenBLAS workers spin
    for about 0.1 s after each call they share: over `verify --all` a
    second core stayed busy (CPU time 1.9x wall time on a 2-core host) and
    the check ran about 8% slower.  The count changes no bit of a result.
    It is process-wide, so BLAS work in other threads also runs on one,
    and the child that `_check_round` forks inherits it.
    """
    get, set_ = forking.openblas_threads() or (lambda: None, lambda count: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _ode_checks(families, couplings, etas, decs) -> list:
    """Per point of a group, its ODE check's fields: max bound, max bound over scale, passed.

    One `_batch_residual_maxima` call per family judges all its points'
    modes, each mode with its point's coupling; the per-point maxima reduce
    one row each.  A point past the check's range refuses the group with
    the error it raises alone, the first such point in group order: on a
    refusal, the points run alone in that order.
    """
    dim = etas.shape[1]
    rows = {}
    for b, fam in enumerate(families):
        rows.setdefault(fam, []).append(b)
    bounds, scales = np.empty((2, len(families), dim))
    passed = np.empty((len(families), dim), dtype=bool)
    try:
        for fam, index in rows.items():
            fields = _batch_residual_maxima(
                fam, np.repeat([couplings[b] for b in index], dim), etas[index].ravel(),
                np.hstack([decs[b].vectors for b in index]))
            for out, field in zip((bounds, scales, passed), fields):
                out[index] = field.reshape(len(index), dim)
    except InputError:
        for fam, a, point_etas, dec in zip(families, couplings, etas, decs):
            _batch_residual_maxima(fam, a, point_etas, dec.vectors)
        raise
    with np.errstate(invalid="ignore"):     # inf / inf: a non-finite eta fails
        return list(zip(np.max(bounds, axis=1).tolist(),
                        np.max(bounds / scales, axis=1).tolist(),
                        passed.all(axis=1).tolist()))


def _check_group(points, spacetime, eta_shift: float) -> list:
    """PointReports of (kind, n, a) points whose operators share one dimension.

    The points' operators are built as one stack (`build_stack`: one
    `_entries` evaluation per family, its couplings as a column), which is
    symmetrized once for the solve and the Sturm pass.  One stacked solve
    gives the (B, dim) etas (plus eta_shift) that every check judges: the
    ODE residual bounds once per family (`_ode_checks`), one Sturm pass
    over the whole group, and the spacetime check once per result dtype
    (`_pde_checks`) on the round's stencil.  Every stacked step is
    elementwise or reduces one point's row, so each report is the one its
    point gets alone.  A report's `checks` holds the checks' JSON fields,
    one object per `CHECKS` row.
    """
    families = [SolutionFamily(kind, n) for kind, n, _ in points]
    couplings = [a for _, _, a in points]
    ops = build_stack(families, couplings)
    decs = solve_spectra(ops)
    solved = np.stack([dec.etas for dec in decs])
    etas = solved + eta_shift
    odes = _ode_checks(families, couplings, etas, decs)
    sturm, gates = sturm_crosscheck(ops, etas)
    pdes = _pde_checks(families, points, etas, [dec.vectors for dec in decs], spacetime)

    reports = []
    for fam, (kind, n, a), (ode_max, ode_over, ode_ok), sturm_disc, sturm_ok, \
            (pde_over, pde_res, pde_ok, notes), gap \
            in zip(families, points, odes, sturm.tolist(), (sturm < gates).tolist(), pdes,
                   min_relative_gaps(solved).tolist()):
        if a == 0.0:
            notes.append("a=0: spectrum degenerates to the squared basis frequencies")
        objects = (     # one per CHECKS row, in its order
            {"max_residual": ode_max, "max_residual_over_scale": ode_over, "passed": ode_ok},
            {"discrepancy": sturm_disc, "passed": sturm_ok},
            {"max_residual_over_gate": pde_over, "max_residual": pde_res, "passed": pde_ok})
        reports.append(PointReport(
            kind=kind.value, n=n, a=a, dim=fam.dim,
            checks={name: obj for (name, _, _), obj in zip(CHECKS, objects, strict=True)},
            min_relative_gap=gap, note="; ".join(notes)))
    return reports


def _split_shares(costs):
    """Two ascending lists of group positions, split greedily by cost, the costliest first.

    Each group goes to the share with the smaller total so far (the first
    on a tie), so every group is in exactly one share.
    """
    shares, totals = ([], []), [0, 0]
    for g in sorted(range(len(costs)), key=lambda g: -costs[g]):
        lighter = int(totals[1] < totals[0])
        shares[lighter].append(g)
        totals[lighter] += costs[g]
    return sorted(shares[0]), sorted(shares[1])


@_one_blas_thread()
def _check_round(points, seed: int, eta_shift: float) -> list:
    """PointReports of (kind, n, a) points, in their order.

    A family's window is a slice of its basis set's widest window, so the
    round evaluates each basis set once, on the stencil it builds
    (`shared_bases`).  The points then run in groups of one
    operator dimension (`_check_group`), so that the solve and the Sturm
    check run once per group, and the build and the ODE check once per
    family of a group; a group's arrays are dropped before the next.

    No group reads another's results.  With two or more groups, where
    `forking.may_fork()` holds (two or more usable CPUs and numpy's bundled
    OpenBLAS, which `_one_blas_thread` pins to one thread in both
    processes), the groups are split into two shares of about equal cost,
    len(group) * (dim + 8)^2 (`_split_shares`): this process runs one, and
    a child forked by `forking.child` after the shared arrays are built
    runs the other on copy-on-write views of them and sends its reports
    back pickled.  Each process runs the same `_check_group` on the same
    arrays, and pickle keeps every float's bits, so each report is the one
    a single process gives.  A share stops at its first exception; the
    round raises the first in group order, the one a single process
    raises.  A round of one group (`run_point`), or where `may_fork` does
    not hold, runs in this process alone.
    """
    families = [SolutionFamily(kind, n) for kind, n, _ in points]
    for fam in families:                # before a window is allocated
        refuse_past_solve_limit(fam.n, fam.dim)
    stencil = pde_stencil(DEFAULT_GRID_N_M, seed)
    spacetime = stencil, shared_bases(families, stencil.z, derivatives=2)
    groups = {}
    for index, fam in enumerate(families):
        groups.setdefault(fam.dim, []).append(index)
    groups = list(groups.values())

    def run(share) -> list:
        """(group position, reports or the first exception) of each group run, in order."""
        results = []
        for g in share:
            try:
                results.append((g, _check_group([points[i] for i in groups[g]],
                                                spacetime, eta_shift)))
            except Exception as exc:
                results.append((g, exc))
                break
        return results

    if len(groups) >= 2 and forking.may_fork():
        mine, theirs = _split_shares(
            [len(g) * (families[g[0]].dim + 8) ** 2 for g in groups])
        with forking.child(
                lambda pipe: pickle.dump(run(theirs), pipe, pickle.HIGHEST_PROTOCOL)) as pipe:
            results = run(mine)
            payload = pipe.read()
        results += pickle.loads(payload)
    else:
        results = run(range(len(groups)))
    reports = [None] * len(points)
    for g, result in sorted(results, key=lambda item: item[0]):
        if isinstance(result, BaseException):
            raise result
        for i, report in zip(groups[g], result):
            reports[i] = report
    return reports


def run_point(kind: FamilyKind, n: int, a: float, seed: int = SAMPLING_SEED,
              eta_shift: float = 0.0) -> PointReport:
    """Run all three checks for one grid point: the grid's path, with a round of one.

    eta_shift is a fault-injection knob: the negative control of
    `benchmarks/worker.py` and the test suite use it to confirm that
    corrupted eigenvalues are caught.  It must stay 0.0 in normal use.
    """
    return _check_round([(kind, n, a)], seed, eta_shift)[0]


def run_grid(n_max: int = DEFAULT_GRID_N_MAX, a_values=DEFAULT_GRID_A_VALUES,
             seed: int = SAMPLING_SEED) -> VerificationReport:
    """Run every check over the shipped grid, deterministically ordered (`_check_round`)."""
    points = [(kind, n, float(a)) for kind in sorted(ALL_KINDS, key=lambda k: k.value)
              for n in range(1, n_max + 1) for a in a_values]
    return VerificationReport(points=tuple(_check_round(points, seed, 0.0)), seed=seed)
