"""Independent verification layer.

Four checks, none sharing numerical machinery with the primary eigensolver:

  * ODE residual (`attach_residuals`, `_batch_residual_maxima`): plugs
    every (eta, coefficient vector) pair of an operator back into the
    original modulation ODE at once.  Derivatives of the finite
    trigonometric sum are themselves exact finite sums, so the residual is
    evaluated analytically, never by numerical differentiation, in one
    batched product per operator.  This is the ground truth for every
    recurrence in the operators module: it shares the families module's
    basis evaluator with the modulation module, so its independence is the
    ODE's from the recurrence.  `benchmarks/oracle.py` restates the family table.
  * dense_oracle_crosscheck: embeds the tridiagonal operator in a dense
    matrix and solves it with the general nonsymmetric dense eigensolver;
    confirms realness and agreement of the spectrum.
  * sturm_crosscheck: Sturm counts on the symmetrized matrix.  Two counts
    per eta enclose its eigenvalue within a radius, the smallest of a
    doubling ladder that holds: a few ulps for the primary solver's etas,
    and within a factor of two of the true distance for a wrong eta.  It
    and the dense check's Newton polish share one LAPACK-free recurrence,
    `spectra.minor_ratios`.
  * pde_residual_fd: assembles the full spacetime wave
    Psi(t,x,y) = modulation(xi) * exp{+i [p - (k.p) k] . x}, xi = k.x,
    applies second-order central differences to the gauge-covariant wave
    operator, and checks O(h^2) convergence of the residual.  This is the
    end-to-end test that the reduction chain from the wave equation to the
    tridiagonal eigenproblem is consistent, including every sign choice.

The dense and Sturm checks take a sequence of equal-dimension operators
and run over the whole stack at once, and the spacetime check takes a
sequence of points of one step and one basis dtype; each operator and
point gets the bits it gets alone.  `run_grid` groups its points by
dimension for them (one spacetime batch per group, basis dtype and step),
and `run_point` is the same path with a group of one.

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
from .errors import InputError, StructuralError
from .families import ALL_KINDS, FamilyKind, SolutionFamily
from .operators import TridiagonalOperator, build_operator
from .physparams import DeBroglieMomentum
from .serialize import format_number
from .spectra import (SpectralDecomposition, certified_radii, gershgorin_bounds,
                      minor_ratios, solve_spectrum, symmetrize)

__all__ = [
    "SAMPLING_SEED", "ODE_RESIDUAL_TOL", "DENSE_IMAG_TOL", "ORACLE_AGREEMENT_TOL",
    "seeded_angles", "attach_residuals",
    "dense_oracle_crosscheck", "sturm_crosscheck", "momentum_for_mode",
    "PdeStencil", "pde_stencil", "PdeResidualReport", "pde_residual_fd",
    "PointReport", "VerificationReport", "run_point", "run_grid",
    "DEFAULT_GRID_A_VALUES", "DEFAULT_GRID_N_MAX",
]

ODE_RESIDUAL_TOL = 1e-9        # times (1 + |eta| + a * dim)
DENSE_IMAG_TOL = 1e-10
DENSE_MAX_DIM = 200            # range limit of the dense cross-check
ORACLE_AGREEMENT_TOL = 1e-9     # floor of the dense and Sturm gate (`_agreement_gates`)
_AGREEMENT_ULPS = 16
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
    family, dim = operators[0].family, operators[0].dim
    if dim > DENSE_MAX_DIM:
        raise InputError(
            f"{family.kind.value} n = {family.n} gives dimension {dim}, past "
            f"the range limit of the dense cross-check (dim <= {DENSE_MAX_DIM})")
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


def sturm_crosscheck(operators, etas=None) -> np.ndarray:
    """Per operator, a radius within which Sturm counts enclose every eigenvalue of its etas.

    The operators share one dimension; etas default to the primary
    solver's.  Diagonals and bond products super * sub are stacked once (a
    bond that cannot be symmetrized raises `symmetrize`'s error).  An
    operator of dim 1 reports |entry - eta|, exactly, since its eigenvalue
    is its entry.  Every other operator reports `spectra.certified_radii`:
    at most 8 eps B for etas within the primary solver's share of the gate,
    and otherwise between max |eigenvalue - eta| and twice that (inf for a
    non-finite eta).
    """
    etas = _equal_dim_etas(operators, etas)
    d = np.stack([T.diag for T in operators])
    with np.errstate(over="ignore"):
        b = np.stack([T.super_ * T.sub for T in operators])
    for row in np.flatnonzero(~((b > 0.0) & (b < np.inf)).all(axis=1)):
        symmetrize(operators[row])      # passes zero bonds, raises on bad ones
    if d.shape[1] == 1:
        return np.abs(d[:, 0] - etas[:, 0])
    return certified_radii(d, b, etas)


def _agreement_gates(operators) -> np.ndarray:
    """Per operator, the gate of its dense and Sturm discrepancies.

    max(ORACLE_AGREEMENT_TOL, 16 eps B), with B = max|Gershgorin bound| of
    the symmetrized matrix S, its infinity norm, so B >= ||S||_2.  By Weyl's
    theorem a symmetric perturbation E moves no eigenvalue by more than
    ||E||_2.  The primary solver is backward stable, so its etas are exact
    for some S + E with ||E||_2 a small multiple of eps ||S||_2 (8 eps B is
    allowed).  The Sturm check certifies such etas within 8 eps B, the
    widest first-pass radius of `spectra.certified_radii`, so c = 8 + 8 =
    16: the certificate's widest first-pass radius plus the primary
    solver's share.  An eta off by e past 8 eps B reports a Sturm radius
    between e and 2e, so one off by more than half the gate can fail.  The
    dense check's Newton-polished values are judged by the same gate.  On
    the shipped grid eps B is at most 5.9e-13 (kg-cos-even n = 25,
    a = 20), so the gate is the 1e-9 floor there; it grows with the
    eigenvalues only far past the grid (2.1e136 at dirac-plus n = 3,
    a = 1e150).
    """
    d = np.stack([T.diag for T in operators])
    e = np.sqrt(np.stack([T.super_ * T.sub for T in operators]))
    lo, hi = gershgorin_bounds(d, e)
    return np.maximum(ORACLE_AGREEMENT_TOL, _AGREEMENT_ULPS * np.finfo(float).eps
                      * np.maximum(np.abs(lo), np.abs(hi)))


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
    z = xi/2 and cos xi: `basis` has shape (9, n_points, dim) and `cos`
    (9, n_points).  Row 0 holds the unshifted points, rows 1-4 the shifts
    t + h, t - h, y + h, y - h and rows 5-8 the same at h/2.  One stencil
    serves every coupling and mode of its family at this refractive index,
    step and seed.
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
    basis: np.ndarray
    cos: np.ndarray


def pde_stencil(family: SolutionFamily, n_m: float, h: float = 1e-3,
                n_points: int = 64, seed: int = SAMPLING_SEED) -> PdeStencil:
    """Points and modulation bases of the spacetime check at steps h and h/2.

    The basis at all 9 shifted point sets comes from one `family.basis` call.
    """
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
    # xi alone, so only the t and y shifts need their own rows
    ts, ys = [t], [y]
    for step in (h, h / 2.0):
        ts += [t + step, t - step, t, t]
        ys += [y, y, y + step, y - step]
    xi = kvec[0] * np.stack(ts) - kvec[2] * np.stack(ys)
    return PdeStencil(family=family, h=h, n_points=n_points, seed=seed,
                      kvec=kvec, t=t, x=x, y=y, sin_xi=np.sin(xi[0]),
                      basis=family.basis(xi / 2.0)[0], cos=np.cos(xi))


def _ptilde(stencil: PdeStencil, c: np.ndarray, momentum: DeBroglieMomentum,
            a: float) -> np.ndarray:
    """p~ = p - (k.p) k of one point, after checking its preconditions."""
    family = stencil.family
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


def pde_residual_fd(stencils, coefficients, momenta, couplings) -> list:
    """Central-difference residuals of the covariant wave equation, one report per point.

    Units hbar = c = 1, k_p = 1.  Point i builds Psi(t,x,y) from its
    modulation (stencils[i] and coefficients[i]) and the de Broglie phase
    of momenta[i], evaluates the gauge-covariant operator at coupling
    couplings[i] with second-order stencils in (ct, x, y) at h and h/2 over
    the seeded points of its stencil (see `pde_stencil`), and reports the
    observed convergence order.  Off-shell or inconsistent momenta are
    precondition errors.

    The points run as one batch: one stacked matrix-vector product per
    point gives its 9 modulations, and the residual arithmetic runs on
    (points, n_points) arrays with per-point coefficients, elementwise, so
    every point gets the bits it gets alone.  That needs one step h, one
    n_points and one result dtype of basis and coefficients per call (a
    real modulation stacked with complex ones would be cast); anything else
    is an InputError.
    """
    stencils = list(stencils)
    cs = [np.asarray(c) for c in coefficients]
    momenta, couplings = list(momenta), list(couplings)
    if not stencils:
        return []
    if (len({(st.h, st.n_points) for st in stencils}) != 1
            or len({np.result_type(st.basis, c) for st, c in zip(stencils, cs)}) != 1):
        raise InputError("a spacetime batch needs one step, one point count and "
                         "one result dtype of basis and coefficients")
    ptil = np.array([_ptilde(st, c, mom, a)
                     for st, c, mom, a in zip(stencils, cs, momenta, couplings,
                                              strict=True)])

    def column(values, dtype=float):
        return np.array(values, dtype=dtype)[:, None]

    ptil_t, ptil_x, ptil_y = ptil[:, :1], ptil[:, 1:2], ptil[:, 2:]
    # per-point scalars, each from the expression a lone point uses;
    # eps_c A0 = -a/4 is the electron sign convention
    neg_quarter_a = column([-(a / 4.0) for a in couplings])
    two_i_eps_a0 = column([2j * (-a / 4.0) for a in couplings], complex)
    a_sq_16 = column([a * a / 16.0 for a in couplings])
    kappa_sq = column([mom.kappa_star_sq - a * a / 16.0
                       for mom, a in zip(momenta, couplings)])
    spins = [st.family.spin_sign for st in stencils]
    spin = np.array(spins) != 0
    spin_coef = column([1j * s * (a / 4.0) for s, a in zip(spins, couplings)],
                       complex)[spin]
    t, x, y, sin_xi, cos = (np.stack([getattr(st, name) for st in stencils])
                            for name in ("t", "x", "y", "sin_xi", "cos"))
    cos_xi = cos[:, 0]

    def phase(t, x, y):
        return np.exp(1j * (ptil_t * t - ptil_x * x - ptil_y * y))

    def max_residual(step: float, row: int) -> list:
        dtt = (mod[:, row] * phase(t + step, x, y) - 2.0 * p0v
               + mod[:, row + 1] * phase(t - step, x, y)) / step ** 2
        psi_xp = mod[:, 0] * phase(t, x + step, y)
        psi_xm = mod[:, 0] * phase(t, x - step, y)
        dxx = (psi_xp - 2.0 * p0v + psi_xm) / step ** 2
        dyy = (mod[:, row + 2] * phase(t, x, y + step) - 2.0 * p0v
               + mod[:, row + 3] * phase(t, x, y - step)) / step ** 2
        dx1 = (psi_xp - psi_xm) / (2.0 * step)
        res = (-(dtt - dxx - dyy)
               - two_i_eps_a0 * cos_xi * dx1
               - a_sq_16 * cos_xi ** 2 * p0v
               - kappa_sq * p0v)
        # spin-0 rows skip the term: 0 * inf would turn an overflowed row into NaN
        res[spin] = res[spin] - spin_coef * sin_xi[spin] * p0v[spin]
        return np.max(np.abs(res), axis=1).tolist()

    # past a ~ 2800, e^(a/4) leaves double range: the residual comes out
    # non-finite and fails the order band, which is the report, not a warning
    h = stencils[0].h
    with np.errstate(over="ignore", invalid="ignore"):
        mod = (np.stack([np.matmul(st.basis, c) for st, c in zip(stencils, cs)])
               * np.exp(neg_quarter_a[:, :, None] * cos))
        p0v = mod[:, 0] * phase(t, x, y)
        r_h = max_residual(h, 1)                # rows 1-4: shifts by h
        r_half = max_residual(h / 2.0, 5)       # rows 5-8: shifts by h/2
    return [PdeResidualReport(
                family=st.family, a=a, eta=mom.eta, k_index=mom.k_index, h=h,
                max_residual=rh, max_residual_half=rhalf,
                observed_order=math.log2(rh / rhalf) if rhalf > 0 else math.inf,
                n_points=st.n_points, seed=st.seed)
            for st, mom, a, rh, rhalf in zip(stencils, momenta, couplings, r_h, r_half)]


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
    def failed_checks(self) -> list:
        """Names of the checks this point failed, in the order ode, dense, sturm, pde."""
        verdicts = (("ode", self.ode_passed), ("dense", self.dense_passed),
                    ("sturm", self.sturm_passed), ("pde", self.pde_passed))
        return [name for name, passed in verdicts if not passed]

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


def _pde_checks(families, points, etas, vectors, seed: int) -> list:
    """(order, residual, passed, notes) of the spacetime check of each point of a group.

    Each point's check runs on its highest non-evanescent mode.  Rounding
    enters like eps * e^(a/4) / h^2 while truncation shrinks like h^2, and
    some small-(n, a) modes have tiny truncation constants, so the order
    estimate needs a step well above the noise floor: h = 5e-3 for a <= 25
    and 1e-2 above.  A family's stencil is built once per step; the points
    run in one `pde_residual_fd` batch per (result dtype of basis and
    coefficients, step).
    """
    results = [None] * len(points)
    stencils, batches = {}, {}
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
        mom = momentum_for_mode(fam, float(point_etas[top]), DEFAULT_GRID_N_M,
                                k_index=top + 1)
        pde_h = 5e-3 if a <= 25.0 else 1e-2
        if (fam, pde_h) not in stencils:
            stencils[fam, pde_h] = pde_stencil(fam, DEFAULT_GRID_N_M, pde_h, seed=seed)
        stencil, c = stencils[fam, pde_h], point_vectors[:, top]
        batches.setdefault((np.result_type(stencil.basis, c), pde_h), []).append(
            (i, stencil, c, mom, a))
    for batch in batches.values():
        index, *args = zip(*batch)
        for i, pde in zip(index, pde_residual_fd(*args)):
            results[i] = (pde.observed_order, pde.max_residual,
                          pde.converged_second_order or pde.max_residual_half < 1e-12, [])
    return results


def _check_group(points, seed: int, eta_shift: float = 0.0) -> list:
    """PointReports of (kind, n, a) points whose operators share one dimension.

    Each point is built, solved and judged by its ODE residual; the dense
    and Sturm cross-checks then run once over the whole group, and the
    spacetime check once per basis dtype and step (`_pde_checks`).  A
    family's bases do not depend on a: its ODE samples are built once and
    its PDE stencils once per step, and both are dropped with the group.
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
    gates = _agreement_gates(ops)

    pdes = _pde_checks(families, points, shifted, [dec.vectors for dec in decs], seed)

    reports = []
    for fam, (kind, n, a), dec, (maxima, scales, passed), dense_disc, sturm_disc, \
            gate, (pde_order, pde_res, pde_ok, notes) \
            in zip(families, points, decs, odes, dense, sturm, gates, pdes):
        if a == 0.0:
            notes.append("a=0: spectrum degenerates to the squared basis frequencies")
        reports.append(PointReport(
            kind=kind.value, n=n, a=a, dim=fam.dim,
            max_ode_residual=float(np.max(maxima)),
            max_ode_residual_over_scale=float(np.max(maxima / scales)),
            ode_passed=bool(np.all(passed)),
            dense_discrepancy=float(dense_disc),
            dense_passed=bool(dense_disc < gate),
            sturm_discrepancy=float(sturm_disc),
            sturm_passed=bool(sturm_disc < gate),
            pde_order=pde_order, pde_residual=pde_res, pde_passed=pde_ok,
            min_relative_gap=dec.min_relative_gap, note="; ".join(notes)))
    return reports


def run_point(kind: FamilyKind, n: int, a: float, seed: int = SAMPLING_SEED,
              eta_shift: float = 0.0) -> PointReport:
    """Run all four checks for one grid point: the grid's path, with a group of one.

    eta_shift is a fault-injection knob: the negative control of
    `benchmarks/worker.py` and the test suite use it to confirm that
    corrupted eigenvalues are caught.  It must stay 0.0 in normal use.
    """
    return _check_group([(kind, n, a)], seed, eta_shift)[0]


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
        group = _check_group([points[i] for i in indices], seed)
        for i, report in zip(indices, group):
            reports[i] = report
    return VerificationReport(points=tuple(reports), seed=seed)
