"""Eigensolution of the finite tridiagonal operators.

The operators are not symmetric, but every bond has super_ * sub > 0 for
a > 0, so a diagonal similarity turns them into real symmetric tridiagonal
matrices.  The solver is LAPACK's dense symmetric eigensolver
(numpy.linalg.eigh, dsyevd) on the symmetrized matrices, run once over an
`OperatorStack` (`solve_spectra`); `solve_spectrum` solves the stack of one
that `build_operator` returns.  The bond check and the similarity are the
stack's (`OperatorStack.symmetrized`).  The verify side checks it with tools that share no
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

from .errors import InputError
from .operators import (MAX_SOLVE_DIM, OperatorStack, refuse_past_solve_limit,
                        tridiagonal_matrices)

__all__ = [
    "MAX_SOLVE_DIM",
    "SpectralDecomposition",
    "min_relative_gaps",
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
        """Smallest adjacent gap over the spectral spread: `min_relative_gaps` of one row."""
        return float(min_relative_gaps(self.etas[None])[0])

    def vector(self, k_label: int) -> np.ndarray:
        if not 1 <= k_label <= self.dim:
            raise InputError(f"k label must be in 1..{self.dim}, got {k_label}")
        return self.vectors[:, k_label - 1]

    def with_residuals(self, residuals: np.ndarray) -> "SpectralDecomposition":
        return replace(self, residuals=np.asarray(residuals, dtype=float))


def min_relative_gaps(etas: np.ndarray) -> np.ndarray:
    """Per row of sorted eigenvalues, shape (B, dim): the smallest adjacent
    gap over the spread etas[-1] - etas[0], or inf for dim 1 or a zero spread.

    Elementwise, and each minimum reduces one row, so a row gets the bits
    it gets alone.
    """
    if etas.shape[1] < 2:
        return np.full(len(etas), np.inf)
    spread = etas[:, -1] - etas[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):    # a zero spread: inf below
        gaps = np.min(np.diff(etas, axis=1), axis=1) / spread
    return np.where(spread == 0.0, np.inf, gaps)


def solve_spectra(stack: OperatorStack) -> list:
    """Full eigendecompositions of a stack's operators, in one stacked solve.

    Ascending eigenvalues and unit-norm vectors, one SpectralDecomposition
    per operator.  The stack is symmetrized at once
    (`OperatorStack.symmetrized`: the first operator with a bond that
    cannot be is refused, naming the bond), and one `numpy.linalg.eigh`
    call solves the symmetric matrices.
    The back-transform, the column norms and the sign fix then run over
    the whole stack.  LAPACK solves each matrix of a stack on its
    own, and every later step is elementwise or reduces one column in
    contiguous memory, so an operator gets the same bits in any stack.

    Refuses dim > MAX_SOLVE_DIM (4729) as a range limit, before allocating:
    the dense solve of one matrix peaks at about 6 dim^2 doubles, which the
    cap keeps under 1 GiB.  `build_operator` refuses such a dimension
    already; the check here covers stacks built by hand.
    """
    dim = stack.dim
    refuse_past_solve_limit(stack.families[0].n, dim)
    diag, off, scale, _ = stack.symmetrized
    matrices = tridiagonal_matrices(diag, off, off)     # a -0.0 entry enters as +0.0
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
                family=family, a=a, etas=etas[b], vectors=columns[b].T,
                k_labels=np.arange(1, dim + 1))
            for b, (family, a) in enumerate(zip(stack.families, stack.couplings))]


def solve_spectrum(stack: OperatorStack) -> SpectralDecomposition:
    """The eigendecomposition of a stack of one (`build_operator`): `solve_spectra`'s first."""
    return solve_spectra(stack)[0]
