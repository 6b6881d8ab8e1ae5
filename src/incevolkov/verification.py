"""Independent verification layer.

Four checks, none sharing numerical machinery with the primary eigensolver:

  * ode_residual: plugs an (eta, coefficient vector) pair back into the
    original modulation ODE.  Derivatives of the finite trigonometric sum
    are themselves exact finite sums, so the residual is evaluated
    analytically, never by numerical differentiation.  This is the ground
    truth for every recurrence in the operators module.
  * dense_oracle_crosscheck: embeds the tridiagonal operator in a dense
    matrix and solves it with the general nonsymmetric dense eigensolver;
    confirms realness and agreement of the spectrum.
  * sturm_crosscheck: Sturm bisection on the symmetrized matrix.  It and
    the dense check's Newton polish share one LAPACK-free recurrence,
    `spectra.minor_ratios`.
  * pde_residual_fd: assembles the full spacetime wave
    Psi(t,x,y) = modulation(xi) * exp{+i [p - (k.p) k] . x}, xi = k.x,
    applies second-order central differences to the gauge-covariant wave
    operator, and checks O(h^2) convergence of the residual.  This is the
    end-to-end test that the reduction chain from the wave equation to the
    tridiagonal eigenproblem is consistent, including every sign choice.

Sign conventions verified by the PDE check (electron, charge coupling
eps_c * A0 = -a/4 in the dimensionless units hbar = c = 1, k_p = 1):
metric (+,-,-,-), vector potential A = e_x A0 cos xi, de Broglie phase
exp(+i p~.x), transverse quantization px = (q+1)/2 > 0, spin term
-i s (a/4) sin(xi) with s = +1 for dirac-plus.  The printed-phase
alternative exp(-i p~.x) flips px to -(q+1)/2; the two are related by
spatial reflection and give identical spectra and densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SAMPLING_SEED
from .errors import InputError, StructuralError
from .families import ALL_KINDS, FamilyKind, SolutionFamily
from .modulation import eval_polynomial_part
from .operators import TridiagonalOperator, build_operator
from .physparams import DeBroglieMomentum
from .spectra import (SpectralDecomposition, minor_ratios, solve_spectrum,
                      sturm_bisection_oracle, symmetrize)

__all__ = [
    "SAMPLING_SEED", "ODE_RESIDUAL_TOL", "DENSE_IMAG_TOL", "ORACLE_AGREEMENT_TOL",
    "ResidualReport", "ode_residual", "attach_residuals",
    "dense_oracle_crosscheck", "sturm_crosscheck",
    "momentum_for_mode", "vacuum_null_momentum",
    "PdeResidualReport", "pde_residual_fd",
    "PointReport", "VerificationReport", "run_point", "run_grid",
    "DEFAULT_GRID_A_VALUES", "DEFAULT_GRID_N_MAX",
]

ODE_RESIDUAL_TOL = 1e-9        # times (1 + |eta| + a * dim)
DENSE_IMAG_TOL = 1e-10
ORACLE_AGREEMENT_TOL = 1e-9
STURM_TOL = 1e-11
PDE_ORDER_BAND = (1.8, 2.2)
DEFAULT_GRID_A_VALUES = (0.0, 0.5, 1.0, 5.0, 14.0, 20.0)
DEFAULT_GRID_N_MAX = 25

# residuals within this factor of tolerance are re-evaluated with
# compensated summation before a verdict
_RECHECK_MARGIN = 10.0
# ODE residual sample points: equidistant plus seeded random, in z = xi/2
_N_EQUIDISTANT = 256
_N_RANDOM = 32


# ---------------------------------------------------------------------------
# basis evaluation with exact derivatives (independent of the modulation
# module's value-only evaluator, by design)
# ---------------------------------------------------------------------------

def _basis_and_derivatives(family: SolutionFamily, z: np.ndarray):
    """Matrices B, B', B'' of the family basis in z = xi/2 at the samples.

    Dirac kinds: columns exp(-2 i r z).  Spin-0 kinds: cos(nu z) or
    sin(nu z) with nu = 2r or 2r + 1.
    """
    if family.is_dirac:
        r = family.r_indices.astype(float)
        B = np.exp(-2j * np.multiply.outer(z, r))
        Bp = (-2j * r) * B
        Bpp = (-4.0 * r * r) * B
        return B, Bp, Bpp
    nu = 2.0 * family.xi_harmonics
    arg = np.multiply.outer(z, nu)
    if family.kind in (FamilyKind.KG_COS_EVEN, FamilyKind.KG_COS_ODD):
        B = np.cos(arg)
        Bp = -nu * np.sin(arg)
    else:
        B = np.sin(arg)
        Bp = nu * np.cos(arg)
    Bpp = -(nu * nu) * B
    return B, Bp, Bpp


def _sample_points(seed: int) -> np.ndarray:
    z_eq = np.linspace(0.0, 2.0 * np.pi, _N_EQUIDISTANT, endpoint=False)
    rng = np.random.default_rng(seed)
    z_rand = rng.uniform(0.0, 2.0 * np.pi, size=_N_RANDOM)
    return np.concatenate([z_eq, z_rand])


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one analytic ODE residual evaluation."""

    family: SolutionFamily
    a: float
    eta: float
    k_index: int
    max_residual: float
    sample_count: int
    scale: float           # 1 + |eta| + a * dim
    tol: float
    passed: bool
    seed: int
    compensated: bool


def _residual_values_batch(family: SolutionFamily, a: float, etas: np.ndarray,
                           vectors: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Residual values, shape (samples, modes); one basis build for all modes."""
    B, Bp, Bpp = _basis_and_derivatives(family, z)
    q = family.q
    s = family.spin_sign
    V = vectors.astype(complex) if family.is_dirac else vectors
    f = B @ V
    fp = Bp @ V
    fpp = Bpp @ V
    sin2z = np.sin(2.0 * z)[:, None]
    cos2z = np.cos(2.0 * z)[:, None]
    coupling = fp + 1j * s * f if s != 0 else fp
    return fpp + a * sin2z * coupling + (etas[None, :] - q * a * cos2z) * f


def _residual_values_compensated(family: SolutionFamily, a: float, eta: float,
                                 c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Same residual for one mode, each sample's terms summed exactly by math.fsum."""
    B, Bp, Bpp = _basis_and_derivatives(family, z)
    q = family.q
    s = family.spin_sign
    sin2z = np.sin(2.0 * z)[:, None]
    cos2z = np.cos(2.0 * z)[:, None]
    terms = c * (Bpp + a * sin2z * (Bp + 1j * s * B) + (eta - q * a * cos2z) * B)
    out = np.empty(len(z), dtype=complex)
    out.real = [math.fsum(row) for row in terms.real.tolist()]
    out.imag = [math.fsum(row) for row in terms.imag.tolist()]
    return out


def _batch_residual_maxima(family: SolutionFamily, a: float, etas: np.ndarray,
                           vectors: np.ndarray, seed: int):
    """The residual policy: per-mode (maxima, scales, rechecked).

    A mode passes when its max |residual| over the sample points is below
    ODE_RESIDUAL_TOL * scale, scale = 1 + |eta| + a * dim.  Modes within the
    recheck margin above that are re-evaluated with compensated summation
    (large-a exponentials stress cancellation).
    """
    z = _sample_points(seed)
    values = _residual_values_batch(family, a, etas, vectors, z)
    maxima = np.max(np.abs(values), axis=0)
    scales = 1.0 + np.abs(etas) + a * family.dim
    limit = ODE_RESIDUAL_TOL * scales
    rechecked = (maxima >= limit) & (maxima < _RECHECK_MARGIN * limit)
    for i in np.nonzero(rechecked)[0]:
        comp = _residual_values_compensated(family, a, float(etas[i]),
                                            vectors[:, i], z)
        maxima[i] = float(np.max(np.abs(comp)))
    return maxima, scales, rechecked


def ode_residual(family: SolutionFamily, a: float, eta: float,
                 coefficients: np.ndarray, seed: int = SAMPLING_SEED,
                 k_index: int = 0) -> ResidualReport:
    """Max |ODE left side| of one eigenpair under `_batch_residual_maxima`.

    Samples 256 equidistant plus 32 seeded random z points.  A failing
    report is data, not an exception.
    """
    c = np.asarray(coefficients, dtype=float)
    if len(c) != family.dim:
        raise InputError("coefficient length does not match family dimension")
    maxima, scales, rechecked = _batch_residual_maxima(
        family, a, np.array([eta]), c[:, None], seed)
    max_residual, scale = float(maxima[0]), float(scales[0])
    return ResidualReport(
        family=family, a=a, eta=eta, k_index=k_index,
        max_residual=max_residual, sample_count=_N_EQUIDISTANT + _N_RANDOM,
        scale=scale, tol=ODE_RESIDUAL_TOL,
        passed=max_residual < ODE_RESIDUAL_TOL * scale, seed=seed,
        compensated=bool(rechecked[0]))


def attach_residuals(decomposition: SpectralDecomposition,
                     seed: int = SAMPLING_SEED) -> SpectralDecomposition:
    """Compute the ODE residual of every eigenpair and attach the column."""
    maxima, _, _ = _batch_residual_maxima(
        decomposition.family, decomposition.a, decomposition.etas,
        decomposition.vectors, seed)
    return decomposition.with_residuals(maxima)


# ---------------------------------------------------------------------------
# dense and Sturm cross-checks
# ---------------------------------------------------------------------------

def _charpoly_newton_polish(T: TridiagonalOperator, w: np.ndarray,
                            steps: int = 3) -> np.ndarray:
    """Sharpen all eigenvalue estimates at once by Newton on det(T - lam I).

    From the ratios q_i = p_i / p_{i-1} of `spectra.minor_ratios`, u_i = p_i'/p_i
    is u_i = (-1 + (d_i - lam) u_{i-1} - b_{i-1} u_{i-2} / q_{i-1}) / q_i and
    the update is lam -= 1/u_n.  An estimate whose u_n is zero or not finite,
    or whose step exceeds 1 (a root jump), keeps its value from then on.
    Removes the conditioning error the general dense solver picks up on
    strongly skewed operators; no LAPACK involved.
    """
    d = T.diag
    b = T.super_ * T.sub
    lam = w.copy()
    active = np.ones(len(lam), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            ratios = minor_ratios(d, b, lam)
            q_prev = next(ratios)
            u_prev, u = 0.0, -1.0 / q_prev
            for i, q in enumerate(ratios, start=1):
                u_prev, u = u, (-1.0 + (d[i] - lam) * u
                                - b[i - 1] * u_prev / q_prev) / q
                q_prev = q
            step = 1.0 / u
            active &= np.isfinite(u) & (np.abs(step) <= 1.0)
            lam = np.where(active, lam - step, lam)
    return lam


def dense_oracle_crosscheck(T: TridiagonalOperator,
                            etas: np.ndarray | None = None) -> float:
    """Max |sorted dense eigenvalues - etas|; raises on complex spectrum.

    The dense path (general nonsymmetric eigensolver on the embedded
    matrix, plus a characteristic-polynomial Newton polish) shares nothing
    with the symmetrize-then-tridiagonal route.  Realness is asserted on
    the raw dense eigenvalues, before polishing.
    """
    if T.dim > 200:
        raise InputError("dense cross-check limited to dim <= 200")
    if etas is None:
        etas = solve_spectrum(T).etas
    w = np.linalg.eigvals(T.to_dense())
    max_imag = float(np.max(np.abs(w.imag))) if T.dim else 0.0
    if max_imag > DENSE_IMAG_TOL:
        raise StructuralError(
            f"dense eigenvalues have imaginary parts up to {max_imag:.3e} "
            f"(> {DENSE_IMAG_TOL}); recurrence or symmetrization is wrong")
    polished = _charpoly_newton_polish(T, np.sort(w.real))
    return float(np.max(np.abs(np.sort(polished) - etas)))


def sturm_crosscheck(T: TridiagonalOperator,
                     etas: np.ndarray | None = None,
                     tol: float = STURM_TOL) -> float:
    """Max discrepancy between the Sturm bisection oracle and etas."""
    if etas is None:
        etas = solve_spectrum(T).etas
    diag, off, _ = symmetrize(T)
    oracle = sturm_bisection_oracle(diag, off, tol=tol)
    return float(np.max(np.abs(oracle - etas)))


# ---------------------------------------------------------------------------
# momentum construction for the spacetime check
# ---------------------------------------------------------------------------

def momentum_for_mode(family: SolutionFamily, eta: float, n_m: float,
                      k_index: int = 0) -> DeBroglieMomentum:
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
    return DeBroglieMomentum(
        p0=p0, px=px, py=0.0, pz=0.0, eta=eta, q=family.q, n=family.n,
        k_index=k_index, kappa_star_sq=p0 * p0 - px * px)


def vacuum_null_momentum(r: int, n_m: float) -> DeBroglieMomentum:
    """Massless on-shell momentum for the a = 0 exact-cancellation check.

    Built so the total plane-wave vector of exp(-i r xi) exp(+i p~.x) is
    null and aligned with the x axis; the time and x stencils of the free
    wave operator then cancel identically at any step size, leaving pure
    rounding noise.
    """
    if r < 1:
        raise InputError("harmonic r must be >= 1")
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    lam = math.sqrt(1.0 - n_m * n_m)
    return DeBroglieMomentum(
        p0=r * (1.0 + n_m * n_m) / lam, px=-r * lam, py=2.0 * r * n_m / lam,
        pz=0.0, eta=4.0 * r * r, q=2 * r - 1, n=r, k_index=0,
        kappa_star_sq=0.0)


# ---------------------------------------------------------------------------
# finite-difference residual of the full scalar wave equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeResidualReport:
    family: SolutionFamily
    a: float
    eta: float
    k_index: int
    h: float
    max_residual: float          # at step h
    max_residual_half: float     # at step h/2
    observed_order: float
    n_points: int
    seed: int

    @property
    def converged_second_order(self) -> bool:
        lo, hi = PDE_ORDER_BAND
        return lo <= self.observed_order <= hi


def pde_residual_fd(family: SolutionFamily, coefficients: np.ndarray,
                    momentum: DeBroglieMomentum, n_m: float, a: float,
                    h: float = 1e-3, n_points: int = 64,
                    seed: int = SAMPLING_SEED) -> PdeResidualReport:
    """Central-difference residual of the covariant wave equation.

    Units hbar = c = 1, k_p = 1.  Builds Psi(t,x,y) from the modulation and
    the de Broglie phase, evaluates the gauge-covariant operator with
    second-order stencils in (ct, x, y) at h and h/2 over seeded random
    points in one wave period, and reports the observed convergence order.
    Off-shell or inconsistent momenta are precondition errors.
    """
    if h <= 0:
        raise InputError("step h must be positive")
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    c = np.asarray(coefficients)
    if len(c) != family.dim:
        raise InputError("coefficient length does not match family dimension")
    if momentum.pz != 0.0:
        raise InputError("stencils cover (ct, x, y); pz must be 0")
    if not momentum.on_shell:
        raise InputError(
            f"momentum off the dressed mass shell: p^2 = {momentum.p_squared!r}"
            f" vs kappa_star_sq = {momentum.kappa_star_sq!r}")

    lam = math.sqrt(1.0 - n_m * n_m)
    k0 = 1.0 / lam                       # k^2 = k0^2 (1 - n_m^2) = 1
    kvec = np.array([k0, 0.0, k0 * n_m])          # (t, x, y) components
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

    ptil = p - k_dot_p * kvec            # k.ptil = 0 since k^2 = 1
    kappa_sq = momentum.kappa_star_sq - a * a / 16.0
    eps_a0 = -a / 4.0                    # electron sign convention
    s = family.spin_sign

    def psi(t, x, y):
        xi = kvec[0] * t - kvec[2] * y
        mod = eval_polynomial_part(family, c, xi) * np.exp(-(a / 4.0) * np.cos(xi))
        phase = np.exp(1j * (ptil[0] * t - ptil[1] * x - ptil[2] * y))
        return mod * phase

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 2.0 * np.pi, size=(n_points, 3))
    t, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
    xi = kvec[0] * t - kvec[2] * y
    cos_xi = np.cos(xi)

    def max_residual(step: float) -> float:
        p0v = psi(t, x, y)
        dtt = (psi(t + step, x, y) - 2.0 * p0v + psi(t - step, x, y)) / step ** 2
        dxx = (psi(t, x + step, y) - 2.0 * p0v + psi(t, x - step, y)) / step ** 2
        dyy = (psi(t, x, y + step) - 2.0 * p0v + psi(t, x, y - step)) / step ** 2
        dx1 = (psi(t, x + step, y) - psi(t, x - step, y)) / (2.0 * step)
        res = (-(dtt - dxx - dyy)
               - 2j * eps_a0 * cos_xi * dx1
               - (a * a / 16.0) * cos_xi ** 2 * p0v
               - kappa_sq * p0v)
        if s != 0:
            res = res - 1j * s * (a / 4.0) * np.sin(xi) * p0v
        return float(np.max(np.abs(res)))

    r_h = max_residual(h)
    r_half = max_residual(h / 2.0)
    order = math.log2(r_h / r_half) if r_half > 0 else math.inf
    return PdeResidualReport(
        family=family, a=a, eta=momentum.eta, k_index=momentum.k_index,
        h=h, max_residual=r_h, max_residual_half=r_half,
        observed_order=order, n_points=n_points, seed=seed)


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointReport:
    """All checks for one (family, n, a) grid point."""

    kind: str
    n: int
    a: float
    dim: int
    max_ode_residual: float
    max_ode_residual_over_scale: float
    ode_passed: bool
    dense_discrepancy: float
    dense_passed: bool
    sturm_discrepancy: float
    sturm_passed: bool
    pde_order: float
    pde_residual: float
    pde_passed: bool
    min_relative_gap: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return (self.ode_passed and self.dense_passed
                and self.sturm_passed and self.pde_passed)


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
        return {
            "points": len(self.points),
            "all_passed": self.all_passed,
            "max_ode_residual_over_scale": max(
                (p.max_ode_residual_over_scale for p in self.points), default=0.0),
            "max_dense_discrepancy": max(
                (p.dense_discrepancy for p in self.points), default=0.0),
            "max_sturm_discrepancy": max(
                (p.sturm_discrepancy for p in self.points), default=0.0),
        }


def run_point(kind: FamilyKind, n: int, a: float, n_m: float = 0.7685453911282961,
              seed: int = SAMPLING_SEED, eta_shift: float = 0.0) -> PointReport:
    """Run all four checks for one grid point.

    eta_shift is a fault-injection knob used by the test suite to confirm
    that corrupted eigenvalues are caught; it must stay 0.0 in normal use.
    """
    family = SolutionFamily(kind, n)
    T = build_operator(family, a)
    dec = solve_spectrum(T)

    shifted = dec.etas + eta_shift
    maxima, scales, _ = _batch_residual_maxima(family, a, shifted,
                                               dec.vectors, seed)
    worst = float(np.max(maxima))
    worst_over_scale = float(np.max(maxima / scales))
    ode_ok = bool(np.all(maxima < ODE_RESIDUAL_TOL * scales))

    dense_disc = dense_oracle_crosscheck(T, shifted)
    sturm_disc = sturm_crosscheck(T, shifted)

    # spacetime check on the highest non-evanescent mode; rounding enters
    # like eps * e^(a/4) / h^2 while truncation shrinks like h^2, and some
    # small-(n, a) modes have tiny truncation constants, so the order
    # estimate needs a step well above the noise floor
    notes = []
    propagating = np.nonzero(shifted >= 0.0)[0]
    if len(propagating) == 0:
        # e.g. the one-dimensional sin-type operator at strong coupling:
        # every eta is negative, no real momentum carries the mode
        pde_order = math.nan
        pde_res = math.nan
        pde_ok = True
        notes.append("all modes evanescent (eta < 0): spacetime check not applicable")
    else:
        top = int(propagating[-1])
        mom = momentum_for_mode(family, float(shifted[top]), n_m,
                                k_index=top + 1)
        pde_h = 5e-3 if a <= 25.0 else 1e-2
        pde = pde_residual_fd(family, dec.vectors[:, top], mom, n_m, a,
                              h=pde_h, seed=seed)
        pde_order = pde.observed_order
        pde_res = pde.max_residual
        pde_ok = pde.converged_second_order or pde.max_residual_half < 1e-12

    if a == 0.0:
        notes.append("a=0: spectrum degenerates to the squared basis frequencies")
    return PointReport(
        kind=kind.value, n=n, a=a, dim=family.dim,
        max_ode_residual=worst, max_ode_residual_over_scale=worst_over_scale,
        ode_passed=ode_ok,
        dense_discrepancy=dense_disc,
        dense_passed=dense_disc < ORACLE_AGREEMENT_TOL,
        sturm_discrepancy=sturm_disc,
        sturm_passed=sturm_disc < ORACLE_AGREEMENT_TOL,
        pde_order=pde_order, pde_residual=pde_res,
        pde_passed=pde_ok,
        min_relative_gap=dec.min_relative_gap, note="; ".join(notes))


def run_grid(kinds=ALL_KINDS, n_max: int = DEFAULT_GRID_N_MAX,
             a_values=DEFAULT_GRID_A_VALUES,
             seed: int = SAMPLING_SEED) -> VerificationReport:
    """Run every check over the shipped grid, deterministically ordered."""
    points = []
    for kind in sorted(kinds, key=lambda k: k.value):
        for n in range(1, n_max + 1):
            for a in a_values:
                points.append(run_point(kind, n, float(a), seed=seed))
    return VerificationReport(points=tuple(points), seed=seed)
