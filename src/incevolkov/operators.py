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
oracle in the verification module; the oracle, not the algebra, is the
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .families import FamilyKind, SolutionFamily

__all__ = [
    "TridiagonalOperator",
    "build_operator",
    "build_dirac_operator",
    "build_kg_operator",
    "boundary_couplings",
    "build_extended_operator",
]


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
    """Build the finite operator of `family` at coupling a >= 0."""
    if a < 0:
        raise InputError(f"coupling parameter a must be >= 0, got {a}")
    diag, sup, sub = _entries(family, a, family.r_indices)
    return TridiagonalOperator(family=family, a=float(a), diag=diag,
                               super_=sup[:-1], sub=sub[1:])


def build_dirac_operator(n: int, a: float, sign: int = +1) -> TridiagonalOperator:
    """Spin-1/2 operator; sign = +1 is the +i f branch, -1 the -i f branch."""
    if sign not in (+1, -1):
        raise InputError("sign must be +1 or -1")
    kind = FamilyKind.DIRAC_PLUS if sign > 0 else FamilyKind.DIRAC_MINUS
    return build_operator(SolutionFamily(kind, n), a)


def build_kg_operator(kind: FamilyKind | str, n: int, a: float) -> TridiagonalOperator:
    family = SolutionFamily(FamilyKind(kind), n)
    if family.is_dirac:
        raise InputError(f"{family.kind.value} is not a spin-0 family")
    return build_operator(family, a)


def boundary_couplings(family: SolutionFamily, a: float) -> dict:
    """Couplings from the first rows outside the window back into it.

    These must vanish identically; a nonzero value means the window/q
    combination does not truncate the recurrence.
    """
    r0, r1 = family.window
    out = {"above": _entries(family, a, np.array([r1 + 1]))[2][0]}
    if family.is_dirac:
        out["below"] = _entries(family, a, np.array([r0 - 1]))[1][0]
    # spin-0 windows terminate below through the basis itself (folding at
    # r = 0, or sin(0) = 0), not through a vanishing coupling
    return out


def build_extended_operator(family: SolutionFamily, a: float, extra: int = 3):
    """Rebuild the operator on a window extended by `extra` indices.

    Returns (T_ext, window_slice) where window_slice selects the original
    rows inside the extended matrix.  Used by the closure test: the rows
    added above (and below, for the dirac kinds) must not couple back into
    the original window.
    """
    if extra < 1:
        raise InputError("extra must be >= 1")
    r0, r1 = family.window
    lo = r0 - extra if family.is_dirac else r0
    rs_ext = np.arange(lo, r1 + extra + 1)
    diag, sup, sub = _entries(family, a, rs_ext)
    T = np.diag(diag)
    i = np.arange(len(rs_ext) - 1)
    T[i, i + 1] = sup[:-1]
    T[i + 1, i] = sub[1:]
    return T, slice(r0 - lo, r0 - lo + family.dim)
