"""Finite tridiagonal operators for the modulation equations.

All six families solve one ODE,

    f'' + a sin(2z) (f' + i s f) + (eta - q a cos(2z)) f = 0,

with s = +1 or -1 for the spin-1/2 families and s = 0 (the classical Ince
equation) for the spin-0 ones.  Projecting it onto the family basis,
exp(-i nu z), cos(nu z) or sin(nu z) with nu = 2 (r + shift) the
z-frequency of window index r (the families module's table), turns it into
the three-term recurrence  eta D_r = T[r,r] D_r + T[r,r+1] D_{r+1}
+ T[r,r-1] D_{r-1}  with one formula for every family:

    T[r,r]   = nu^2
    T[r,r+1] = (a/2) (q + nu + 2 - s)
    T[r,r-1] = (a/2) (q + 2 - nu + s)

The spin-0 bases fold at r = 0 through cos(-x) = cos(x), sin(-x) = -sin(x),
which amends three entries:

    kg-cos-even : T[1,0] = q a              (constant mode couples doubly)
    kg-cos-odd  : T[0,0] = 1 + (a/2)(q+1)   (r=0 lowering folds onto itself)
    kg-sin-odd  : T[0,0] = 1 - (a/2)(q+1)   (same fold, odd parity sign)
    kg-sin-even : no amendment              (no r=0 basis function)

The coupling from the row just above the window top into the window,
T[r1+1, r1] = (a/2)(q - nu(r1) + s), vanishes identically for the q of
each family, and for the dirac kinds so does the coupling from the row
just below the bottom, T[r0-1, r0] = (a/2)(q + nu(r0) - s).  That is the
closure that truncates the infinite recurrence to a finite eigenproblem;
the spin-0 windows end below through the fold itself.

Every recurrence above is validated against the original ODE by the residual
module, whose Fourier coefficients read the ODE, not these entries; the
ODE, not the algebra, is the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .families import FamilyKind, SolutionFamily

__all__ = ["MAX_SOLVE_DIM", "TridiagonalOperator", "build_operator"]

# the dense solve holds about 6 dim x dim float64 arrays at its peak (RSS
# measured at 5.1-5.5 dim^2 doubles for dim 1000-3000); the cap keeps that
# under 1 GiB
_SOLVE_MEMORY_BYTES = 2 ** 30
MAX_SOLVE_DIM = math.isqrt(_SOLVE_MEMORY_BYTES // (6 * 8))      # 4729


def refuse_past_solve_limit(n: int, dim: int) -> None:
    """Refuse dim > MAX_SOLVE_DIM (4729) as a range limit of the dense solver."""
    if dim > MAX_SOLVE_DIM:
        raise InputError(
            f"n = {n} gives dimension {dim}, past the range "
            f"limit of the dense solver (dim <= {MAX_SOLVE_DIM}, under 1 GiB)")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real tridiagonal matrix T of one solution family at coupling a.

    The eigenproblem is eta * v = T @ v.  `super_` holds T[i, i+1] and
    `sub` holds T[i+1, i], both of length dim - 1, so super_[i] * sub[i]
    is the product across one bond.
    """

    family: SolutionFamily
    a: float
    diag: np.ndarray
    super_: np.ndarray
    sub: np.ndarray

    def __post_init__(self):
        for arr in (self.diag, self.super_, self.sub):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        T = np.diag(self.diag.copy())
        if self.dim > 1:
            T += np.diag(self.super_, 1) + np.diag(self.sub, -1)
        return T


@np.errstate(over="ignore", invalid="ignore")     # near a = 1e308: refused or failed
def _entries(family: SolutionFamily, a: float, r: np.ndarray):
    """Arrays T[r,r], T[r,r+1] and T[r,r-1] at the indices r: the module
    docstring's formula, with the three spin-0 folds at r = 0."""
    q, s = family.q, family.spin_sign
    nu = family.z_frequencies(r)
    diag = nu * nu
    sup = 0.5 * a * (q + nu + 2 - s)
    sub = 0.5 * a * (q + 2 - nu + s)
    if family.kind is FamilyKind.KG_COS_EVEN:
        sub[r == 1] = a * q
    elif family.kind is FamilyKind.KG_COS_ODD:
        diag[r == 0] += 0.5 * a * (q + 1)
    elif family.kind is FamilyKind.KG_SIN_ODD:
        diag[r == 0] -= 0.5 * a * (q + 1)
    return diag, sup, sub


def build_operator(family: SolutionFamily, a: float) -> TridiagonalOperator:
    """Build the finite operator of `family` at coupling a >= 0.

    A dimension past the dense solver's range limit is refused before any
    array is allocated.
    """
    if a < 0:
        raise InputError(f"coupling parameter a must be >= 0, got {a}")
    refuse_past_solve_limit(family.n, family.dim)
    diag, sup, sub = _entries(family, a, family.r_indices)
    return TridiagonalOperator(family=family, a=float(a), diag=diag,
                               super_=sup[:-1], sub=sub[1:])
