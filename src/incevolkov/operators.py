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

`build_operator` builds one operator.  `build_stack` builds operators of
one dimension, of several families and couplings, as an `OperatorStack` of
(B, dim) arrays, one entry evaluation per family; the stack holds the bond
check that symmetrizes it (`OperatorStack.symmetrized`), run once for the
solve and the Sturm pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, StructuralError
from .families import FamilyKind, SolutionFamily

__all__ = ["MAX_SOLVE_DIM", "TridiagonalOperator", "OperatorStack", "build_operator",
           "build_stack"]

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
def _entries(family: SolutionFamily, a, r: np.ndarray):
    """Arrays T[r,r], T[r,r+1] and T[r,r-1] at the indices r: the module
    docstring's formula, with the three spin-0 folds at r = 0.

    a is one coupling, or a column of them, shape (B, 1), which gives one
    row per coupling.  Every entry is elementwise in its coupling, so a
    row has the bits of its coupling alone."""
    q, s = family.q, family.spin_sign
    nu = family.z_frequencies(r)
    half_a = 0.5 * a
    sup = half_a * (q + nu + 2 - s)
    sub = half_a * (q + 2 - nu + s)
    diag = np.multiply(nu, nu, out=np.empty_like(sup))
    if family.kind is FamilyKind.KG_COS_EVEN:
        sub[..., r == 1] = a * q
    elif family.kind is FamilyKind.KG_COS_ODD:
        diag[..., r == 0] += half_a * (q + 1)
    elif family.kind is FamilyKind.KG_SIN_ODD:
        diag[..., r == 0] -= half_a * (q + 1)
    return diag, sup, sub


def _refuse_coupling(family: SolutionFamily, a: float) -> None:
    """Refuse a < 0, then a dimension past the dense solver's range limit."""
    if a < 0:
        raise InputError(f"coupling parameter a must be >= 0, got {a}")
    refuse_past_solve_limit(family.n, family.dim)


def build_operator(family: SolutionFamily, a: float) -> TridiagonalOperator:
    """Build the finite operator of `family` at coupling a >= 0.

    A dimension past the dense solver's range limit is refused before any
    array is allocated.
    """
    _refuse_coupling(family, a)
    diag, sup, sub = _entries(family, a, family.r_indices)
    return TridiagonalOperator(family=family, a=float(a), diag=diag,
                               super_=sup[:-1], sub=sub[1:])


_TINY = np.finfo(float).tiny        # the smallest normal double


@dataclass(frozen=True, eq=False)
class OperatorStack:
    """Equal-dimension operators as stacked arrays: row b is the operator of
    families[b] at couplings[b].

    diag has shape (B, dim), super_ and sub (B, dim - 1).  The stack is a
    sequence of its operators: stack[b] is the `TridiagonalOperator` of row
    b, on views of the rows.
    """

    families: tuple
    couplings: tuple
    diag: np.ndarray
    super_: np.ndarray
    sub: np.ndarray

    def __post_init__(self):
        for arr in (self.diag, self.super_, self.sub):
            arr.setflags(write=False)

    @classmethod
    def of(cls, operators) -> "OperatorStack":
        """A stack of equal-dimension operators (a stack is returned as it is)."""
        if isinstance(operators, cls):
            return operators
        if len({T.dim for T in operators}) != 1:
            raise InputError("a stack needs operators of one dimension")
        return cls(families=tuple(T.family for T in operators),
                   couplings=tuple(T.a for T in operators),
                   **{name: np.stack([getattr(T, name) for T in operators])
                      for name in ("diag", "super_", "sub")})

    def __len__(self) -> int:
        return len(self.families)

    def __getitem__(self, b: int) -> TridiagonalOperator:
        return TridiagonalOperator(family=self.families[b], a=self.couplings[b],
                                   diag=self.diag[b], super_=self.super_[b], sub=self.sub[b])

    @property
    def dim(self) -> int:
        return self.diag.shape[1]

    @cached_property
    def symmetrized(self):
        """Diagonal similarities S = D T D^-1, S symmetric, of every row: the bond check.

        Returns (diag, off, scale, bonds), one row per operator, read-only:
        S has the diagonal of T and off-diagonals sqrt(super_ * sub); scale
        is the diagonal of D, scale[0] = 1 and scale[i + 1] = scale[i] *
        sqrt(super_[i] / sub[i]) (a ratio of 1 across a zero bond), a
        sequential product; bonds are the products super_ * sub.
        Eigenvectors map back as v = y / scale.  Every step is elementwise
        or runs along one row, so an operator gets the bits it gets alone.
        The first operator with a bond that cannot be symmetrized is
        refused, naming its first such bond.  Computed once per stack: the
        solve and the Sturm pass of a verify group share it.
        """
        diag, sup, sub = self.diag, self.super_, self.sub
        with np.errstate(over="ignore"):            # an overflow is refused below
            bonds = sup * sub
        positive = bonds > 0.0
        bad = (bonds == np.inf) | ~(positive | ((sup == 0.0) & (sub == 0.0)))
        if bad.any():
            row, i = np.unravel_index(np.argmax(bad), bad.shape)
            _refuse_bond(self[row], int(i))
        off = np.sqrt(np.where(positive, bonds, 0.0))
        ratio = np.sqrt(np.divide(sup, sub, out=np.ones_like(bonds), where=positive))
        scale = np.cumprod(np.concatenate((np.ones((len(self), 1)), ratio), axis=1), axis=1)
        for arr in (off, scale, bonds):
            arr.setflags(write=False)
        return diag, off, scale, bonds


def _refuse_bond(T: TridiagonalOperator, i: int):
    """Raise the error for bond i, whose super*sub is not a positive double.

    A product of 0 underflowed when both sides have one sign (a signed
    zero counts) and either neither side is 0 or the nonzero one is
    subnormal: at a = 5e-324, 0.5 a rounds to 0 while q a does not.
    """
    sup, sub = float(T.super_[i]), float(T.sub[i])
    p = sup * sub
    if p == np.inf:
        raise InputError(
            f"bond {i}: super*sub overflows at a = {T.a!r}; "
            "the coupling is too large for double precision")
    if (p == 0.0 and np.signbit(sup) == np.signbit(sub)
            and (sup != 0.0 and sub != 0.0 or max(abs(sup), abs(sub)) < _TINY)):
        raise InputError(
            f"bond {i}: super*sub underflows at a = {T.a!r}; "
            "the coupling is too small for double precision")
    raise StructuralError(
        f"bond {i}: super*sub = {p!r} <= 0 at a = {T.a}; "
        "operator is not symmetrizable (wrong recurrence?)")


def build_stack(families, couplings) -> OperatorStack:
    """The operators of families[b] at couplings[b], all of one dimension, as one stack.

    Each point is refused as `build_operator` refuses it, the first in
    order first.  Each family's rows then come from one `_entries`
    evaluation with its couplings as a column, so row b has the bits of
    build_operator(families[b], couplings[b]).
    """
    for family, a in zip(families, couplings, strict=True):
        _refuse_coupling(family, a)
    if len({family.dim for family in families}) != 1:
        raise InputError("a stack needs operators of one dimension")
    rows = {}
    for b, family in enumerate(families):
        rows.setdefault(family, []).append(b)
    dim = families[0].dim
    diag = np.empty((len(families), dim))
    sup, sub = np.empty((len(families), dim - 1)), np.empty((len(families), dim - 1))
    for family, index in rows.items():
        d, u, s = _entries(family, np.array([couplings[b] for b in index], dtype=float)[:, None],
                           family.r_indices)
        diag[index], sup[index], sub[index] = d, u[:, :-1], s[:, 1:]
    return OperatorStack(families=tuple(families), couplings=tuple(map(float, couplings)),
                         diag=diag, super_=sup, sub=sub)
