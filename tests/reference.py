"""Reference physics the tests check and the commands do not run.

Spin-1/2 algebra.  The spin coupling of the second-order spinor wave
equation reduces to the 4x4 algebraic eigenproblem

    (gamma.k)(gamma.e_x) u = k0 lambda u,

with wave four-vector k = k0 (1, 0, n_m, 0) and polarization e_x = (0,1,0,0).
Because (gamma.k)^2 = k^2 = k0^2 (1 - n_m^2), (gamma.e_x)^2 = -1 and
k.e_x = 0, the matrix M = (gamma.k)(gamma.e_x)/k0 squares to
(1 - n_m^2) * I, so its eigenvalues are +-lambda with lambda =
sqrt(1 - n_m^2), each twofold degenerate.  Eigenvalues are representation
independent and depend only on n_m, never on the k0 scale.

The Majorana representation (all four matrices purely imaginary) makes M a
real matrix.  Basis within each degenerate eigenspace is fixed by
Gram-Schmidt on the columns of the spectral projector, in column order, for
reproducibility.

This algebra is why the spin-1/2 families carry s = +1 or -1 and why the
spin eigenvalue of `params` is lambda = sqrt(1 - n_m^2); the package states
those results and does not build the gamma matrices.

Plasma relations.  The Drude dispersion omega(k_y) and its inverse, and
the exact ratio a / mu0: each checks a relation behind a number `params`
reports.

Finite-difference spacetime residual.  `pde_residual_fd` differences the
full wave Psi = M(xi) P(t, x, y) by second-order central differences at
steps h and h/2 over the seeded points of `verification.pde_stencil`,
and reports the observed convergence order.  It is the check `verify`
ran before the exact one (`verification.pde_residual`), kept so that the
tests can compare the two verdicts.

Hand-built operators.  `hand_built` makes the stack of one of given
entry rows, `joined` puts stacks of one dimension into one, and `dense`
embeds a stack as its (B, dim, dim) matrices: the inputs of the tests
that corrupt an entry, flip a bond's sign or mix good and bad operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from incevolkov.constants import C_LIGHT, HBAR, SAMPLING_SEED
from incevolkov.errors import InputError, StructuralError
from incevolkov.operators import OperatorStack, tridiagonal_matrices
from incevolkov.physparams import PlasmaInput
from incevolkov.verification import PDE_POINTS, seeded_angles

# ---------------------------------------------------------------------------
# spin-1/2 algebra: gamma matrices and the 4x4 spin-field eigenproblem
# ---------------------------------------------------------------------------

_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class GammaSet:
    """Four gamma matrices plus the metric they represent."""

    gammas: tuple
    metric: np.ndarray

    def anticommutator(self, mu: int, nu: int) -> np.ndarray:
        g_mu, g_nu = self.gammas[mu], self.gammas[nu]
        return g_mu @ g_nu + g_nu @ g_mu

    def max_clifford_defect(self) -> float:
        """Largest entrywise deviation of {g^mu, g^nu} from 2 g^{mu nu} I."""
        worst = 0.0
        eye = np.eye(4)
        for mu in range(4):
            for nu in range(4):
                d = self.anticommutator(mu, nu) - 2.0 * self.metric[mu, nu] * eye
                worst = max(worst, float(np.max(np.abs(d))))
        return worst

    def max_real_part(self) -> float:
        """Majorana property: all entries purely imaginary."""
        return max(float(np.max(np.abs(g.real))) for g in self.gammas)


def build_majorana_gammas() -> GammaSet:
    """Standard purely imaginary Majorana representation."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)

    g0 = np.block([[z, s2], [s2, z]])
    g1 = np.block([[1j * s3, z], [z, 1j * s3]])
    g2 = np.block([[z, -s2], [s2, z]])
    g3 = np.block([[-1j * s1, z], [z, -1j * s1]])
    for g in (g0, g1, g2, g3):
        g.setflags(write=False)
    return GammaSet(gammas=(g0, g1, g2, g3), metric=_METRIC)


@dataclass(frozen=True)
class SpinEigensystem:
    """Eigensystem of M = (gamma.k)(gamma.e_x)/k0 at refractive index n_m.

    eigenvalues = (+lam, +lam, -lam, -lam); eigenvectors[:, s] is u_{s+1},
    so columns 0,1 span the +lam eigenspace and columns 2,3 the -lam one.
    """

    n_m: float
    lam: float
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def max_eigen_residual(self) -> float:
        r = self.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.abs(r)))

    def smallest_singular_value(self) -> float:
        return float(np.linalg.svd(self.eigenvectors, compute_uv=False)[-1])


def _orthonormal_columns(P: np.ndarray, count: int) -> np.ndarray:
    """First `count` orthonormal vectors from the columns of P, in order."""
    basis = []
    for j in range(P.shape[1]):
        v = P[:, j].copy()
        for b in basis:
            v -= (b.conj() @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            v /= norm
            jmax = int(np.argmax(np.abs(v)))
            if v[jmax].real < 0:
                v = -v
            basis.append(v)
        if len(basis) == count:
            return np.column_stack(basis)
    raise StructuralError("projector has lower rank than expected")


def spin_interaction_matrix(n_m: float,
                            gammas: GammaSet | None = None) -> SpinEigensystem:
    """Build M = (gamma.k)(gamma.e_x)/k0 and solve its eigenproblem.

    Uses the spectral projectors (M +- lam I)/(+-2 lam): exact within the
    degenerate eigenspaces and deterministic, unlike a general eigensolver's
    arbitrary degenerate basis.
    """
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    if gammas is None:
        gammas = build_majorana_gammas()
    g0, g1, g2, _ = gammas.gammas
    # gamma.k / k0 = g0 - n_m g2 (lower-index contraction), gamma.e_x = -g1
    M = (g0 - n_m * g2) @ (-g1)
    lam = np.sqrt(1.0 - n_m * n_m)

    plus = _orthonormal_columns(M + lam * np.eye(4), 2)
    minus = _orthonormal_columns(M - lam * np.eye(4), 2)
    eigenvectors = np.column_stack([plus, minus])
    eigenvalues = np.array([lam, lam, -lam, -lam])
    return SpinEigensystem(n_m=n_m, lam=lam, matrix=M,
                           eigenvalues=eigenvalues, eigenvectors=eigenvectors)


# ---------------------------------------------------------------------------
# plasma relations the commands do not use: dispersion, a / mu0
# ---------------------------------------------------------------------------

def coupling_to_mu0_ratio(particle_mass_kg: float, plasma: PlasmaInput) -> float:
    """Exact ratio a / mu0 = 4 m c^2 / (hbar omega_p)."""
    if particle_mass_kg <= 0:
        raise InputError("particle mass must be positive")
    return 4.0 * particle_mass_kg * C_LIGHT * C_LIGHT / (HBAR * plasma.omega_p)


class Dispersion(NamedTuple):
    omega: float
    v_ph: float
    v_gr: float


def dispersion(k_y: float, plasma: PlasmaInput) -> Dispersion:
    """omega(k_y) = sqrt(omega_p^2 + (c k_y)^2) with phase/group velocities.

    At k_y = 0 the wave sits at cutoff: omega = omega_p, the phase velocity
    is reported infinite and the group velocity zero.
    """
    if k_y < 0:
        raise InputError("k_y must be >= 0")
    omega = math.sqrt(plasma.omega_p ** 2 + (C_LIGHT * k_y) ** 2)
    if k_y == 0:
        return Dispersion(omega=omega, v_ph=math.inf, v_gr=0.0)
    return Dispersion(omega=omega, v_ph=omega / k_y,
                      v_gr=C_LIGHT * C_LIGHT * k_y / omega)


def wavenumber_from(omega: float, plasma: PlasmaInput) -> float:
    """Invert the dispersion relation: k_y = sqrt(omega^2 - omega_p^2) / c."""
    if omega < plasma.omega_p:
        raise InputError(
            f"omega = {omega} rad/s below the plasma cutoff {plasma.omega_p} rad/s")
    return math.sqrt(omega * omega - plasma.omega_p ** 2) / C_LIGHT


# ---------------------------------------------------------------------------
# finite-difference residual of the full scalar wave equation
# ---------------------------------------------------------------------------

class FdPdeReport(NamedTuple):
    max_residual: float          # at step h
    max_residual_half: float     # at step h/2
    observed_order: float

    @property
    def converged_second_order(self) -> bool:
        return 1.8 <= self.observed_order <= 2.2

    @property
    def passed(self) -> bool:
        """The verdict `verify` gave: order 2, or a residual at h/2 below 1e-12."""
        return self.converged_second_order or self.max_residual_half < 1e-12


def pde_residual_fd(family, c, momentum, a: float, h: float, n_m: float) -> FdPdeReport:
    """Central-difference residuals of the covariant wave equation for one mode.

    Psi = g(xi/2) exp(-(a/4) cos xi) exp(i (pt t - px x - py y)), with
    g = B c from the family's own basis, p~ = p - (k.p) k and xi = k.x,
    at the seeded points of `verification.pde_stencil` and their t, x and
    y shifts by +-h and +-h/2.  The operator is the one of
    `verification.pde_residual` (eps_c A0 = -a/4); the order is log2 of
    the ratio of the maximum residuals at h and h/2.
    """
    lam = math.sqrt(1.0 - n_m * n_m)
    k0 = 1.0 / lam
    k2 = k0 * n_m
    t, x, y = seeded_angles(SAMPLING_SEED, 3 * PDE_POINTS).reshape(PDE_POINTS, 3).T
    k_dot_p = k0 * momentum.p0 - k2 * momentum.py
    pt, px, py = (momentum.p0 - k_dot_p * k0, momentum.px, momentum.py - k_dot_p * k2)
    xi = k0 * t - k2 * y
    cos_xi, sin_xi = np.cos(xi), np.sin(xi)

    def psi(t, x, y):
        xi = k0 * t - k2 * y
        return (family.basis(xi / 2.0)[0] @ c * np.exp(-(a / 4.0) * np.cos(xi))
                * np.exp(1j * (pt * t - px * x - py * y)))

    def max_residual(step: float) -> float:
        p0 = psi(t, x, y)
        dtt = (psi(t + step, x, y) - 2.0 * p0 + psi(t - step, x, y)) / step ** 2
        dxx = (psi(t, x + step, y) - 2.0 * p0 + psi(t, x - step, y)) / step ** 2
        dyy = (psi(t, x, y + step) - 2.0 * p0 + psi(t, x, y - step)) / step ** 2
        dx1 = (psi(t, x + step, y) - psi(t, x - step, y)) / (2.0 * step)
        res = (-(dtt - dxx - dyy) - 2j * (-a / 4.0) * cos_xi * dx1
               - (a * a / 16.0) * cos_xi ** 2 * p0
               - (momentum.kappa_star_sq - a * a / 16.0) * p0
               - 1j * family.spin_sign * (a / 4.0) * sin_xi * p0)
        return float(np.max(np.abs(res)))

    with np.errstate(over="ignore", invalid="ignore"):
        r_h, r_half = max_residual(h), max_residual(h / 2.0)
    return FdPdeReport(r_h, r_half, math.log2(r_h / r_half) if r_half > 0 else math.inf)


# ---------------------------------------------------------------------------
# hand-built operators
# ---------------------------------------------------------------------------

_ENTRIES = ("diag", "super_", "sub")


def hand_built(family, a, diag, super_, sub) -> OperatorStack:
    """The operator of `family` at a with the entry rows diag (dim) and
    super_ and sub (dim - 1): a stack of one, its arrays copied."""
    rows = {"diag": diag, "super_": super_, "sub": sub}
    return OperatorStack(families=(family,), couplings=(a,),
                         **{name: np.array([rows[name]], dtype=float) for name in _ENTRIES})


def joined(stacks) -> OperatorStack:
    """Stacks of one dimension as one stack, their rows in order."""
    return OperatorStack(families=sum((s.families for s in stacks), ()),
                         couplings=sum((s.couplings for s in stacks), ()),
                         **{name: np.concatenate([getattr(s, name) for s in stacks])
                            for name in _ENTRIES})


def dense(stack) -> np.ndarray:
    """The (B, dim, dim) matrices T of a stack."""
    return tridiagonal_matrices(stack.diag, stack.super_, stack.sub)
