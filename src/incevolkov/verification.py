"""Independent verification layer.

Four checks, none sharing numerical machinery with the primary eigensolver:

  * ode_residual: plugs an (eta, coefficient vector) pair back into the
    original modulation ODE.  Derivatives of the finite trigonometric sum
    are themselves exact finite sums, so the residual is evaluated
    analytically, never by numerical differentiation, in one batched
    product per operator.  This is the ground truth for every recurrence
    in the operators module: it shares the families module's basis
    evaluator with the modulation module, so its independence is the ODE's
    from the recurrence.  `benchmarks/oracle.py` restates the family table.
  * dense_oracle_crosscheck: embeds the tridiagonal operator in a dense
    matrix and solves it with the general nonsymmetric dense eigensolver;
    confirms realness and agreement of the spectrum.
  * sturm_crosscheck: Sturm bisection on the symmetrized matrix, to a
    relative tolerance.  It and the dense check's Newton polish share one
    LAPACK-free recurrence, `spectra.minor_ratios`.  The etas it judges
    guide the bisection: one recurrence pass checks every predicted
    decision, and each decision is still taken from its own count, so a
    wrong eta changes the oracle's time and never its bits.
  * pde_residual_fd: assembles the full spacetime wave
    Psi(t,x,y) = modulation(xi) * exp{+i [p - (k.p) k] . x}, xi = k.x,
    applies second-order central differences to the gauge-covariant wave
    operator, and checks O(h^2) convergence of the residual.  This is the
    end-to-end test that the reduction chain from the wave equation to the
    tridiagonal eigenproblem is consistent, including every sign choice.

The dense and Sturm checks take a sequence of equal-dimension operators
and run over the whole stack at once, with each operator getting the bits
it gets alone; `run_grid` groups its points by dimension for them, and
`run_point` is the same path with a group of one.

Sign conventions verified by the PDE check (electron, charge coupling
eps_c * A0 = -a/4 in the dimensionless units hbar = c = 1, k_p = 1):
metric (+,-,-,-), vector potential A = e_x A0 cos xi, de Broglie phase
exp(+i p~.x), transverse quantization px = (q+1)/2 > 0, spin term
-i s (a/4) sin(xi) with s = +1 for dirac-plus.  The printed-phase
alternative exp(-i p~.x) flips px to -(q+1)/2; the two are related by
spatial reflection and give identical spectra and densities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import SAMPLING_SEED
from .errors import InputError, OracleError, StructuralError
from .families import ALL_KINDS, FamilyKind, SolutionFamily
from .operators import TridiagonalOperator, build_operator
from .physparams import DeBroglieMomentum
from .serialize import format_number
from .spectra import (SpectralDecomposition, minor_ratios, solve_spectrum,
                      sturm_bisection_oracle, symmetrize)

__all__ = [
    "SAMPLING_SEED", "ODE_RESIDUAL_TOL", "DENSE_IMAG_TOL", "ORACLE_AGREEMENT_TOL",
    "seeded_angles", "ResidualReport", "ode_residual", "attach_residuals",
    "dense_oracle_crosscheck", "sturm_crosscheck",
    "momentum_for_mode", "vacuum_null_momentum",
    "PdeStencil", "pde_stencil", "PdeResidualReport", "pde_residual_fd",
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
DEFAULT_GRID_N_M = 0.7685453911282961   # refractive index of the spacetime check

# ODE residual sample points: equidistant plus seeded random, in z = xi/2
_N_EQUIDISTANT = 256
_N_RANDOM = 32

# numpy's SeedSequence hash constants and PCG64 multiplier
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=32)
def seeded_angles(seed: int, count: int) -> np.ndarray:
    """`count` angles in [0, 2 pi): numpy.random.default_rng(seed).uniform(0, 2 pi, count).

    A pure-Python copy of numpy's stream, bit for bit, so that no command
    imports numpy.random.  The steps are numpy's (O'Neill, "PCG: A Family of
    Simple Fast Space-Efficient Statistically Good Algorithms for Random
    Number Generation", HMC-CS-2014-0905):

      * SeedSequence: the seed's 32-bit words (least significant first) are
        hashed into a pool of 4 words and mixed; 8 words drawn from the pool
        form the 128-bit PCG64 state seed and stream increment;
      * PCG64: s <- s * M + inc mod 2^128, output XSL-RR (hi ^ lo, rotated
        right by the top 6 bits of s);
      * double u = (u64 >> 11) * 2^-53, angle = 0 + 2 pi * u.

    The angles are a pure function of (seed, count), so they are cached;
    the array is read-only.
    """
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append((seed >> 32 * len(words)) & _MASK32)

    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32
                                        for i in range(0, 8, 2))
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    s = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128

    angles = []
    for _ in range(count):
        s = (s * _PCG64_MULTIPLIER + inc) & _MASK128
        rot = s >> 122
        x = ((s >> 64) ^ s) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        angles.append(2.0 * math.pi * ((x >> 11) * 2.0 ** -53))
    out = np.array(angles)
    out.setflags(write=False)
    return out


def _sample_points(seed: int) -> np.ndarray:
    z_eq = np.linspace(0.0, 2.0 * np.pi, _N_EQUIDISTANT, endpoint=False)
    return np.concatenate([z_eq, seeded_angles(seed, _N_RANDOM)])


class _OdeSamples(NamedTuple):
    """What every ODE residual of one family reads at the seeded sample points.

    None of it depends on a, so one build serves every coupling.
    """

    family: SolutionFamily
    basis: list            # [B, B', B''], one row per sample point
    sin2z: np.ndarray      # sin(2z), cos(2z) as columns
    cos2z: np.ndarray


def _ode_samples(family: SolutionFamily, seed: int) -> _OdeSamples:
    z = _sample_points(seed)
    return _OdeSamples(family, family.basis(z, derivatives=2),
                       np.sin(2.0 * z)[:, None], np.cos(2.0 * z)[:, None])


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


def _residual_values_batch(samples: _OdeSamples, a: float, etas: np.ndarray,
                           vectors: np.ndarray) -> np.ndarray:
    """Residual values, shape (samples, modes), from one prebuilt basis."""
    B, Bp, Bpp = samples.basis
    q = samples.family.q
    s = samples.family.spin_sign
    V = vectors.astype(B.dtype, copy=False)     # cast once, not per product
    f = B @ V
    fp = Bp @ V
    fpp = Bpp @ V
    coupling = fp + 1j * s * f if s != 0 else fp
    return (fpp + a * samples.sin2z * coupling
            + (etas[None, :] - q * a * samples.cos2z) * f)


def _residual_values_compensated(family: SolutionFamily, a: float, eta: float,
                                 c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Same residual for one mode, each sample's terms summed exactly by math.fsum.

    Not part of the verdict: the exact-summation reference against which
    the rounding error of `_residual_values_batch` is measured.
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


def _batch_residual_maxima(samples: _OdeSamples, a: float, etas: np.ndarray,
                           vectors: np.ndarray):
    """The residual policy: per-mode (maxima, scales, passed).

    A mode passes when its max |residual| over the sample points is below
    ODE_RESIDUAL_TOL * scale, scale = 1 + |eta| + a * dim.  The rounding
    error of the batched sums stays below 3e-15 * scale (measured against
    `_residual_values_compensated` for all six kinds at n <= 60, a <= 50),
    more than five orders of magnitude under the tolerance.
    """
    values = _residual_values_batch(samples, a, etas, vectors)
    maxima = np.max(np.abs(values), axis=0)
    scales = 1.0 + np.abs(etas) + a * samples.family.dim
    return maxima, scales, maxima < ODE_RESIDUAL_TOL * scales


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
    maxima, scales, passed = _batch_residual_maxima(
        _ode_samples(family, seed), a, np.array([eta]), c[:, None])
    return ResidualReport(
        family=family, a=a, eta=eta, k_index=k_index,
        max_residual=float(maxima[0]), sample_count=_N_EQUIDISTANT + _N_RANDOM,
        scale=float(scales[0]), tol=ODE_RESIDUAL_TOL, passed=bool(passed[0]),
        seed=seed)


def attach_residuals(decomposition: SpectralDecomposition,
                     seed: int = SAMPLING_SEED):
    """Attach the ODE residual column; returns (decomposition, passed).

    passed[i] is the verdict of `_batch_residual_maxima` for etas[i].
    """
    maxima, _, passed = _batch_residual_maxima(
        _ode_samples(decomposition.family, seed), decomposition.a,
        decomposition.etas, decomposition.vectors)
    return decomposition.with_residuals(maxima), passed


# ---------------------------------------------------------------------------
# dense and Sturm cross-checks
# ---------------------------------------------------------------------------

def _charpoly_newton_polish(d: np.ndarray, b: np.ndarray, w: np.ndarray,
                            steps: int = 3) -> np.ndarray:
    """Sharpen all eigenvalue estimates of a stack at once by Newton on det(T - lam I).

    d (B, dim) and b = super * sub (B, dim - 1) describe B equal-dimension
    operators; w (B, dim) holds their estimates.  From the ratios
    q_i = p_i / p_{i-1} of `spectra.minor_ratios`, u_i = p_i'/p_i is
    u_i = (-1 + (d_i - lam) u_{i-1} - b_{i-1} u_{i-2} / q_{i-1}) / q_i and the
    update is lam -= 1/u_n.  An estimate whose u_n is zero or not finite, or
    whose step exceeds 1 (a root jump), keeps its value from then on.
    Removes the conditioning error the general dense solver picks up on
    strongly skewed operators; no LAPACK involved.
    """
    d_rows = d.T[:, :, None]
    b_rows = b.T[:, :, None]
    lam = w.copy()
    active = np.ones(lam.shape, dtype=bool)
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
            active &= np.isfinite(u) & (np.abs(step) <= 1.0)
            lam = np.where(active, lam - step, lam)
    return lam


def _describe(T: TridiagonalOperator) -> str:
    return f"{T.family.kind.value} n={T.family.n} a={format_number(T.a)}"


def _equal_dim_etas(operators, etas) -> np.ndarray:
    """The (B, dim) eigenvalues to judge: etas, or the primary solver's."""
    if len({T.dim for T in operators}) != 1:
        raise InputError("batched cross-checks need operators of one dimension")
    if etas is None:
        etas = [solve_spectrum(T).etas for T in operators]
    return np.asarray(etas, dtype=float)


def dense_oracle_crosscheck(operators, etas=None) -> np.ndarray:
    """Per operator, max |sorted dense eigenvalues - etas|; raises on a complex spectrum.

    operators is a sequence of equal-dimension operators and etas the
    matching sequence of eigenvalue arrays (default: the primary solver's).
    The dense path (general nonsymmetric eigensolver on each embedded
    matrix, plus a characteristic-polynomial Newton polish run over the
    whole stack) shares nothing with the symmetrize-then-tridiagonal route.
    Realness is asserted on the raw dense eigenvalues, before polishing.
    """
    if operators[0].dim > 200:
        raise InputError("dense cross-check limited to dim <= 200")
    etas = _equal_dim_etas(operators, etas)
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


def sturm_crosscheck(operators, etas=None, tol: float = STURM_TOL) -> np.ndarray:
    """Per operator, max discrepancy between the Sturm bisection oracle and etas.

    One `sturm_bisection_oracle` call bisects the symmetrized matrices of
    all the equal-dimension operators together, guided by the etas it
    judges: they set how much of the bisection runs in one guided pass,
    never the oracle's bits, so the check stays independent of the
    primary solver.
    """
    etas = _equal_dim_etas(operators, etas)
    diags, offs, _ = zip(*(symmetrize(T) for T in operators))
    try:
        oracle = sturm_bisection_oracle(np.stack(diags), np.stack(offs), tol=tol,
                                        guesses=etas)
    except OracleError as exc:
        raise OracleError(f"{_describe(operators[exc.index])}: {exc}") from exc
    return np.max(np.abs(oracle - etas), axis=1)


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


@dataclass(frozen=True, eq=False)
class PdeStencil:
    """The part of `pde_residual_fd` that depends on neither a nor the mode.

    The seeded points (t, x, y) in one wave period and, at the points and
    at each of their t and y shifts by +-h and +-h/2, the family's basis at
    z = xi/2 and cos xi (`samples`, keyed by the (t shift, y shift) pair).
    One stencil serves every coupling and mode of its family at this
    refractive index, step and seed.
    """

    family: SolutionFamily
    h: float
    n_points: int
    seed: int
    kvec: np.ndarray             # (t, x, y) components of k, k^2 = 1
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sin_xi: np.ndarray           # at the unshifted points
    samples: dict


def pde_stencil(family: SolutionFamily, n_m: float, h: float = 1e-3,
                n_points: int = 64, seed: int = SAMPLING_SEED) -> PdeStencil:
    """Points and modulation bases of the spacetime check at steps h and h/2."""
    if h <= 0:
        raise InputError("step h must be positive")
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    lam = math.sqrt(1.0 - n_m * n_m)
    k0 = 1.0 / lam                       # k^2 = k0^2 (1 - n_m^2) = 1
    kvec = np.array([k0, 0.0, k0 * n_m])
    pts = seeded_angles(seed, 3 * n_points).reshape(n_points, 3)
    t, x, y = pts[:, 0], pts[:, 1], pts[:, 2]

    # Psi = modulation(xi) * phase(t, x, y) with xi = k.x; an x step leaves
    # xi alone, so only the t and y shifts need their own samples
    def sample(ts, ys):
        xi = kvec[0] * ts - kvec[2] * ys
        return family.basis(xi / 2.0)[0], np.cos(xi)

    samples = {(0.0, 0.0): sample(t, y)}
    for step in (h, h / 2.0):
        samples[step, 0.0] = sample(t + step, y)
        samples[-step, 0.0] = sample(t - step, y)
        samples[0.0, step] = sample(t, y + step)
        samples[0.0, -step] = sample(t, y - step)
    return PdeStencil(family=family, h=h, n_points=n_points, seed=seed,
                      kvec=kvec, t=t, x=x, y=y,
                      sin_xi=np.sin(kvec[0] * t - kvec[2] * y), samples=samples)


def pde_residual_fd(stencil: PdeStencil, coefficients: np.ndarray,
                    momentum: DeBroglieMomentum, a: float) -> PdeResidualReport:
    """Central-difference residual of the covariant wave equation.

    Units hbar = c = 1, k_p = 1.  Builds Psi(t,x,y) from the modulation and
    the de Broglie phase, evaluates the gauge-covariant operator with
    second-order stencils in (ct, x, y) at h and h/2 over the seeded points
    of `stencil` (see `pde_stencil`), and reports the observed convergence
    order.  Off-shell or inconsistent momenta are precondition errors.
    """
    family = stencil.family
    c = np.asarray(coefficients)
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

    ptil = p - k_dot_p * kvec            # k.ptil = 0 since k^2 = 1
    kappa_sq = momentum.kappa_star_sq - a * a / 16.0
    eps_a0 = -a / 4.0                    # electron sign convention
    s = family.spin_sign
    t, x, y = stencil.t, stencil.x, stencil.y
    cos_xi = stencil.samples[0.0, 0.0][1]

    def modulation(t_shift, y_shift):
        basis, cos_shifted = stencil.samples[t_shift, y_shift]
        return (basis @ c) * np.exp(-(a / 4.0) * cos_shifted)

    def phase(t, x, y):
        return np.exp(1j * (ptil[0] * t - ptil[1] * x - ptil[2] * y))

    def max_residual(step: float, mod0: np.ndarray, p0v: np.ndarray) -> float:
        dtt = (modulation(step, 0.0) * phase(t + step, x, y) - 2.0 * p0v
               + modulation(-step, 0.0) * phase(t - step, x, y)) / step ** 2
        psi_xp = mod0 * phase(t, x + step, y)
        psi_xm = mod0 * phase(t, x - step, y)
        dxx = (psi_xp - 2.0 * p0v + psi_xm) / step ** 2
        dyy = (modulation(0.0, step) * phase(t, x, y + step) - 2.0 * p0v
               + modulation(0.0, -step) * phase(t, x, y - step)) / step ** 2
        dx1 = (psi_xp - psi_xm) / (2.0 * step)
        res = (-(dtt - dxx - dyy)
               - 2j * eps_a0 * cos_xi * dx1
               - (a * a / 16.0) * cos_xi ** 2 * p0v
               - kappa_sq * p0v)
        if s != 0:
            res = res - 1j * s * (a / 4.0) * stencil.sin_xi * p0v
        return float(np.max(np.abs(res)))

    # past a ~ 2800, e^(a/4) leaves double range: the residual comes out
    # non-finite and fails the order band, which is the report, not a warning
    h = stencil.h
    with np.errstate(over="ignore", invalid="ignore"):
        mod0 = modulation(0.0, 0.0)
        p0v = mod0 * phase(t, x, y)
        r_h = max_residual(h, mod0, p0v)
        r_half = max_residual(h / 2.0, mod0, p0v)
    order = math.log2(r_h / r_half) if r_half > 0 else math.inf
    return PdeResidualReport(
        family=family, a=a, eta=momentum.eta, k_index=momentum.k_index,
        h=h, max_residual=r_h, max_residual_half=r_half,
        observed_order=order, n_points=stencil.n_points, seed=stencil.seed)


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


def _pde_check(stencils: dict, family: SolutionFamily, a: float, etas: np.ndarray,
               vectors: np.ndarray, n_m: float, seed: int):
    """(order, residual, passed, notes) of the spacetime check of one point.

    stencils maps (family, h) to its `pde_stencil`; a missing one is built
    and added, for the other couplings of the family that use the same h.
    """
    # spacetime check on the highest non-evanescent mode; rounding enters
    # like eps * e^(a/4) / h^2 while truncation shrinks like h^2, and some
    # small-(n, a) modes have tiny truncation constants, so the order
    # estimate needs a step well above the noise floor
    propagating = np.nonzero(etas >= 0.0)[0]
    if len(propagating) == 0:
        # e.g. the one-dimensional sin-type operator at strong coupling:
        # every eta is negative, no real momentum carries the mode
        return (math.nan, math.nan, True,
                ["all modes evanescent (eta < 0): spacetime check not applicable"])
    top = int(propagating[-1])
    mom = momentum_for_mode(family, float(etas[top]), n_m, k_index=top + 1)
    pde_h = 5e-3 if a <= 25.0 else 1e-2
    if (family, pde_h) not in stencils:
        stencils[family, pde_h] = pde_stencil(family, n_m, pde_h, seed=seed)
    pde = pde_residual_fd(stencils[family, pde_h], vectors[:, top], mom, a)
    return (pde.observed_order, pde.max_residual,
            pde.converged_second_order or pde.max_residual_half < 1e-12, [])


def _check_group(points, n_m: float, seed: int, eta_shift: float) -> list:
    """PointReports of (kind, n, a) points whose operators share one dimension.

    Each point is built, solved and judged by its ODE residual; the dense
    and Sturm cross-checks then run once over the whole group, and the
    spacetime check per point.  A family's bases do not depend on a: its
    ODE samples are built once and its PDE stencils once per step, and
    both are dropped with the group.
    """
    families = [SolutionFamily(kind, n) for kind, n, _ in points]
    ops = [build_operator(fam, a) for fam, (_, _, a) in zip(families, points)]
    decs = [solve_spectrum(T) for T in ops]
    shifted = [dec.etas + eta_shift for dec in decs]
    samples = {fam: _ode_samples(fam, seed) for fam in dict.fromkeys(families)}
    odes = [_batch_residual_maxima(samples[fam], a, etas, dec.vectors)
            for fam, (_, _, a), etas, dec in zip(families, points, shifted, decs)]
    dense = dense_oracle_crosscheck(ops, shifted)
    sturm = sturm_crosscheck(ops, shifted)

    stencils = {}
    reports = []
    for fam, (kind, n, a), dec, etas, (maxima, scales, passed), dense_disc, sturm_disc \
            in zip(families, points, decs, shifted, odes, dense, sturm):
        pde_order, pde_res, pde_ok, notes = _pde_check(stencils, fam, a, etas,
                                                       dec.vectors, n_m, seed)
        if a == 0.0:
            notes.append("a=0: spectrum degenerates to the squared basis frequencies")
        reports.append(PointReport(
            kind=kind.value, n=n, a=a, dim=fam.dim,
            max_ode_residual=float(np.max(maxima)),
            max_ode_residual_over_scale=float(np.max(maxima / scales)),
            ode_passed=bool(np.all(passed)),
            dense_discrepancy=float(dense_disc),
            dense_passed=bool(dense_disc < ORACLE_AGREEMENT_TOL),
            sturm_discrepancy=float(sturm_disc),
            sturm_passed=bool(sturm_disc < ORACLE_AGREEMENT_TOL),
            pde_order=pde_order, pde_residual=pde_res, pde_passed=pde_ok,
            min_relative_gap=dec.min_relative_gap, note="; ".join(notes)))
    return reports


def run_point(kind: FamilyKind, n: int, a: float, n_m: float = DEFAULT_GRID_N_M,
              seed: int = SAMPLING_SEED, eta_shift: float = 0.0) -> PointReport:
    """Run all four checks for one grid point: the grid's path, with a group of one.

    eta_shift is a fault-injection knob used by the test suite to confirm
    that corrupted eigenvalues are caught; it must stay 0.0 in normal use.
    """
    return _check_group([(kind, n, a)], n_m, seed, eta_shift)[0]


def run_grid(kinds=ALL_KINDS, n_max: int = DEFAULT_GRID_N_MAX,
             a_values=DEFAULT_GRID_A_VALUES,
             seed: int = SAMPLING_SEED) -> VerificationReport:
    """Run every check over the shipped grid, deterministically ordered.

    Points are checked in groups of one operator dimension, so that the
    dense and Sturm cross-checks run once per group; a group's arrays are
    dropped before the next.  The reports keep the grid order.
    """
    points = [(kind, n, float(a)) for kind in sorted(kinds, key=lambda k: k.value)
              for n in range(1, n_max + 1) for a in a_values]
    groups = {}
    for index, (kind, n, _) in enumerate(points):
        groups.setdefault(SolutionFamily(kind, n).dim, []).append(index)
    reports = [None] * len(points)
    for indices in groups.values():
        group = _check_group([points[i] for i in indices], DEFAULT_GRID_N_M, seed, 0.0)
        for i, report in zip(indices, group):
            reports[i] = report
    return VerificationReport(points=tuple(reports), seed=seed)
