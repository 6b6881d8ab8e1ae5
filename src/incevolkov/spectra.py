"""Eigensolution of the finite tridiagonal operators.

The operators are not symmetric, but every bond has super_ * sub > 0 for
a > 0, so a diagonal similarity turns them into real symmetric tridiagonal
matrices.  The solver is LAPACK's dense symmetric eigensolver
(numpy.linalg.eigh, dsyevd) on the symmetrized matrices, run once over a
stack of equal-dimension operators (`solve_spectra`); `solve_spectrum` is
a stack of one.  The verify side checks it with tools that share no
numerical machinery with it: the ODE residual (residual module) and the
Sturm certificate (verification module).

Conventions fixed here and recorded in every output:
  * eigenvalues sorted ascending, k labels 1-based in that order;
  * coefficient vectors have unit Euclidean norm and the sign of the
    largest-magnitude component is positive.

High-lying eigenvalues of the dirac kinds pair up with splittings that
shrink exponentially along the spectrum (checked once at 60-digit precision:
down to ~1e-16 absolute at n = 20, a = 14, and far smaller beyond).  The
eigenvalues are mathematically simple, but double precision cannot resolve
the tightest pairs, so distinctness (a gap above 1e-8 of the spread) is a
reported diagnostic (`min_relative_gap`), not a construction invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError, StructuralError
from .operators import MAX_SOLVE_DIM, TridiagonalOperator, refuse_past_solve_limit

__all__ = [
    "MAX_SOLVE_DIM",
    "SpectralDecomposition",
    "symmetrize",
    "symmetrize_stack",
    "solve_spectra",
    "solve_spectrum",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Sorted eigenvalues and normalized coefficient vectors of one operator.

    vectors[:, i] is the coefficient vector of etas[i]; k_labels[i] = i + 1.
    residuals is filled by the verification module (None until then).
    """

    family: object                 # SolutionFamily
    a: float
    etas: np.ndarray
    vectors: np.ndarray
    k_labels: np.ndarray
    residuals: Optional[np.ndarray] = None

    def __post_init__(self):
        for arr in (self.etas, self.vectors, self.k_labels):
            arr.setflags(write=False)
        if self.residuals is not None:
            self.residuals.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.etas)

    @property
    def spread(self) -> float:
        return float(self.etas[-1] - self.etas[0])

    @property
    def min_relative_gap(self) -> float:
        """Smallest adjacent gap over the spectral spread (inf for dim 1)."""
        if self.dim < 2 or self.spread == 0.0:
            return float("inf")
        return float(np.min(np.diff(self.etas)) / self.spread)

    def vector(self, k_label: int) -> np.ndarray:
        if not 1 <= k_label <= self.dim:
            raise InputError(f"k label must be in 1..{self.dim}, got {k_label}")
        return self.vectors[:, k_label - 1]

    def with_residuals(self, residuals: np.ndarray) -> "SpectralDecomposition":
        return replace(self, residuals=np.asarray(residuals, dtype=float))


def symmetrize_stack(operators):
    """Diagonal similarities S = D T D^-1, S symmetric, of equal-dimension operators.

    Returns (diag, off, scale, bonds), one row per operator: S has the
    diagonal of T and off-diagonals sqrt(super_ * sub); scale is the
    diagonal of D, scale[0] = 1 and scale[i + 1] = scale[i] *
    sqrt(super_[i] / sub[i]) (a ratio of 1 across a zero bond), a
    sequential product; bonds are the products super_ * sub.  Eigenvectors
    map back as v = y / scale.  diag, super_ and sub are stacked once, and
    every step is elementwise or runs along one row, so an operator gets
    the bits it gets alone.  The first operator with a bond that cannot be
    symmetrized is refused, naming its first such bond.
    """
    diag = np.stack([T.diag for T in operators])
    sup = np.stack([T.super_ for T in operators])
    sub = np.stack([T.sub for T in operators])
    with np.errstate(over="ignore"):            # an overflow is refused below
        bonds = sup * sub
    positive = bonds > 0.0
    bad = (bonds == np.inf) | ~(positive | ((sup == 0.0) & (sub == 0.0)))
    if bad.any():
        row, i = np.unravel_index(np.argmax(bad), bad.shape)
        _refuse_bond(operators[row], int(i))
    off = np.sqrt(np.where(positive, bonds, 0.0))
    ratio = np.sqrt(np.divide(sup, sub, out=np.ones_like(bonds), where=positive))
    scale = np.cumprod(np.concatenate((np.ones((len(operators), 1)), ratio), axis=1), axis=1)
    return diag, off, scale, bonds


def symmetrize(T: TridiagonalOperator):
    """(diag, off, scale) of one operator: `symmetrize_stack` with a stack of one."""
    diag, off, scale, _ = symmetrize_stack([T])
    return diag[0], off[0], scale[0]


_TINY = np.finfo(float).tiny        # the smallest normal double


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


def solve_spectra(operators) -> list:
    """Full eigendecompositions of equal-dimension operators, in one stacked solve.

    Ascending eigenvalues and unit-norm vectors, one SpectralDecomposition
    per operator.  The stack is symmetrized at once (`symmetrize_stack`:
    the first operator with a bond that cannot be is refused, naming the
    bond), and one `numpy.linalg.eigh` call solves the symmetric matrices.
    The back-transform, the column norms and the sign fix then run over
    the whole stack.  LAPACK solves each matrix of a stack on its
    own, and every later step is elementwise or reduces one column in
    contiguous memory, so an operator gets the same bits in any stack.

    Refuses dim > MAX_SOLVE_DIM (4729) as a range limit, before allocating:
    the dense solve of one matrix peaks at about 6 dim^2 doubles, which the
    cap keeps under 1 GiB.  `build_operator` refuses such a dimension
    already; the check here covers operators built by hand.
    """
    dims = {T.dim for T in operators}
    if len(dims) != 1:
        raise InputError("a stacked solve needs operators of one dimension")
    dim = dims.pop()
    refuse_past_solve_limit(operators[0].family.n, dim)
    diag, off, scale, _ = symmetrize_stack(operators)
    matrices = np.zeros((len(operators), dim, dim))
    rows = np.arange(dim)
    matrices[:, rows, rows] += diag          # 0.0 + d: a -0.0 entry enters as +0.0
    matrices[:, rows[1:], rows[:-1]] = off
    matrices[:, rows[:-1], rows[1:]] = off
    etas, y = np.linalg.eigh(matrices)
    # columns[b, k] is vector k of operator b, contiguous: each operator's
    # vectors are Fortran-ordered, the layout whose summation order fixes
    # the last bits of the ODE residual, and its norms reduce along memory.
    # The back-transform writes into the matrices' buffer: no third stack.
    columns = np.divide(np.swapaxes(y, 1, 2), scale[:, None, :], out=matrices)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(columns, axis=2)
    # from dirac n = 516 on, some columns' squares overflow: prescaled by
    # their largest entry, they still get a unit norm (and not v / inf = 0)
    huge = ~np.isfinite(norms)
    if huge.any():
        prescaled = columns[huge]
        prescaled /= np.max(np.abs(prescaled), axis=1)[:, None]
        columns[huge] = prescaled
        norms[huge] = np.linalg.norm(prescaled, axis=1)
    columns /= norms[:, :, None]
    largest = np.argmax(np.abs(columns), axis=2)[:, :, None]
    columns *= np.where(np.take_along_axis(columns, largest, axis=2) < 0, -1.0, 1.0)
    return [SpectralDecomposition(
                family=T.family, a=T.a, etas=etas[b], vectors=columns[b].T,
                k_labels=np.arange(1, dim + 1))
            for b, T in enumerate(operators)]


def solve_spectrum(T: TridiagonalOperator) -> SpectralDecomposition:
    """The eigendecomposition of one operator: `solve_spectra` with a stack of one."""
    return solve_spectra([T])[0]
