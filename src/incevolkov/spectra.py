"""Eigensolution of the finite tridiagonal operators.

The operators are not symmetric, but every bond has super_ * sub > 0 for
a > 0, so a diagonal similarity turns them into real symmetric tridiagonal
matrices.  The primary solver is LAPACK's dense symmetric eigensolver
(numpy.linalg.eigh, dsyevd) on the symmetrized matrix; the dense check
(verification module) runs the general nonsymmetric one (dgeev) on the
unsymmetrized T.  `sturm_bisection_oracle` and the dense check's Newton
polish share no numerical machinery with either; both run the LAPACK-free
leading-minor recurrence `minor_ratios`, over stacks of equal-dimension
matrices, and the oracle bisects each matrix to a tolerance relative to
its Gershgorin bounds.

Conventions fixed here and recorded in every output:
  * eigenvalues sorted ascending, k labels 1-based in that order;
  * coefficient vectors have unit Euclidean norm and the sign of the
    largest-magnitude component is positive.

High-lying eigenvalues of the dirac kinds pair up with splittings that
shrink exponentially along the spectrum (checked once at 60-digit precision:
down to ~1e-16 absolute at n = 20, a = 14, and far smaller beyond).  The
eigenvalues are mathematically simple, but double precision cannot resolve
the tightest pairs, so distinctness above `RELATIVE_GAP_THRESHOLD` is a
reported diagnostic (`min_relative_gap`), not a construction invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError, OracleError, StructuralError
from .operators import TridiagonalOperator

__all__ = [
    "RELATIVE_GAP_THRESHOLD",
    "MAX_SOLVE_DIM",
    "SpectralDecomposition",
    "symmetrize",
    "solve_spectrum",
    "minor_ratios",
    "sturm_bisection_oracle",
]

# distinctness threshold for the gap diagnostic, relative to spectral spread
RELATIVE_GAP_THRESHOLD = 1e-8
# the dense solve holds about 6 dim x dim float64 arrays at its peak (RSS
# measured at 5.1-5.5 dim^2 doubles for dim 1000-3000); the cap keeps that
# under 1 GiB
_SOLVE_MEMORY_BYTES = 2 ** 30
MAX_SOLVE_DIM = math.isqrt(_SOLVE_MEMORY_BYTES // (6 * 8))      # 4729
# a Sturm bracket need not be narrower than this many ulps of its matrix's
# largest Gershgorin bound: near one ulp, bisection cannot shrink it further
_STURM_TOL_ULPS = 8


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
    scale: np.ndarray              # diagonal similarity used to symmetrize
    residuals: Optional[np.ndarray] = None

    def __post_init__(self):
        for arr in (self.etas, self.vectors, self.k_labels, self.scale):
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

    def gaps_pass(self, threshold: float = RELATIVE_GAP_THRESHOLD) -> bool:
        return self.min_relative_gap > threshold

    def vector(self, k_label: int) -> np.ndarray:
        if not 1 <= k_label <= self.dim:
            raise InputError(f"k label must be in 1..{self.dim}, got {k_label}")
        return self.vectors[:, k_label - 1]

    def with_residuals(self, residuals: np.ndarray) -> "SpectralDecomposition":
        return replace(self, residuals=np.asarray(residuals, dtype=float))


def symmetrize(T: TridiagonalOperator):
    """Diagonal similarity S = D T D^-1 with S symmetric.

    Returns (diag, offdiag, scale): S has the same diagonal as T,
    off-diagonals sqrt(super_ * sub), and scale is the diagonal of D with
    scale[0] = 1.  Eigenvectors map back as v = y / scale.
    """
    dim = T.dim
    scale = np.ones(dim)
    off = np.zeros(max(dim - 1, 0))
    for i in range(dim - 1):
        p = float(T.super_[i]) * float(T.sub[i])     # overflows to inf silently
        if p == np.inf:
            raise InputError(
                f"bond {i}: super*sub overflows at a = {T.a!r}; "
                "the coupling is too large for double precision")
        if p > 0.0:
            off[i] = np.sqrt(p)
            scale[i + 1] = scale[i] * np.sqrt(T.super_[i] / T.sub[i])
        elif T.super_[i] == 0.0 and T.sub[i] == 0.0:
            off[i] = 0.0
            scale[i + 1] = scale[i]
        elif p == 0.0 and np.sign(T.super_[i]) == np.sign(T.sub[i]):
            raise InputError(
                f"bond {i}: super*sub underflows at a = {T.a!r}; "
                "the coupling is too small for double precision")
        else:
            raise StructuralError(
                f"bond {i}: super*sub = {p!r} <= 0 at a = {T.a}; "
                "operator is not symmetrizable (wrong recurrence?)")
    return T.diag.copy(), off, scale


def solve_spectrum(T: TridiagonalOperator) -> SpectralDecomposition:
    """Full eigendecomposition, ascending eigenvalues, normalized vectors.

    Refuses dim > MAX_SOLVE_DIM (4729) as a range limit, before allocating:
    the dense solve peaks at about 6 dim^2 doubles, which the cap keeps
    under 1 GiB.
    """
    if T.dim > MAX_SOLVE_DIM:
        raise InputError(
            f"n = {T.family.n} gives dimension {T.dim}, past the range limit "
            f"of the dense solver (dim <= {MAX_SOLVE_DIM}, under 1 GiB)")
    diag, off, scale = symmetrize(T)
    etas, y = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # Fortran order: the summation order of the ODE residual, and so the
    # last bits of every reported residual, follows the vectors' layout
    vectors = np.asfortranarray(y) / scale[:, None]
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    largest = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[largest, np.arange(T.dim)] < 0, -1.0, 1.0)
    return SpectralDecomposition(
        family=T.family, a=T.a, etas=etas, vectors=vectors,
        k_labels=np.arange(1, T.dim + 1), scale=scale)


def minor_ratios(d, b, x):
    """Yield q_i = p_i / p_{i-1}, the leading-minor ratios of T - x I, by row.

    A stack of B equal-dimension matrices T with diagonals d, shape
    (B, dim), and bond products b = super * sub, shape (B, dim - 1), is
    shifted by x, shape (B, m): q_0 = d_0 - x and q_i = d_i - x - b_{i-1} /
    q_{i-1}, each of shape (B, m).  Every element sees the arithmetic of a
    lone matrix, so a matrix gets the same bits in any stack.  Ratios are
    yielded unclamped; as a divisor, one below its matrix's pivmin (scaled
    by that matrix's max |b|) in magnitude becomes -pivmin, as in LAPACK
    dstebz.
    """
    shape = x.shape
    pivmin = (np.maximum(np.abs(b).max(axis=1, initial=0.0), 1.0)
              * np.finfo(float).tiny * 1e4)
    pivmin = np.broadcast_to(pivmin[:, None], shape)
    neg_pivmin = -pivmin
    # every matrix's row coefficients spread over its shifts, so that each
    # step combines arrays of one shape: broadcasting a (B, 1) column
    # against (B, m) costs about as much as the arithmetic itself
    d_rows = np.repeat(d.T, shape[1], axis=1).reshape(-1, *shape)
    b_rows = np.repeat(b.T, shape[1], axis=1).reshape(-1, *shape)
    q = d_rows[0] - x
    yield q
    for i in range(1, len(d_rows)):
        q = np.where(np.abs(q) < pivmin, neg_pivmin, q)
        q = d_rows[i] - x - b_rows[i - 1] / q
        yield q


def sturm_bisection_oracle(diag: np.ndarray, offdiag: np.ndarray,
                           tol: float = 1e-11,
                           max_iterations: int = 250) -> np.ndarray:
    """All eigenvalues of stacked symmetric tridiagonal matrices by Sturm bisection.

    diag has shape (B, dim) and offdiag (B, dim - 1); the result has shape
    (B, dim).  Counts eigenvalues below x as negative `minor_ratios` (with
    b = e^2) and bisects each index on a Gershgorin-bounded interval.  A
    matrix stops at the first iteration at which its widest bracket is
    narrower than its own tolerance, max(tol, 8 eps max|Gershgorin bound|)
    (relative, as in LAPACK dstebz), and leaves the batch there, so it gets
    the bits it gets alone.  Independent of LAPACK by construction.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    batch, nd = d.shape
    if nd <= 1:
        return d.copy()
    if e.shape != (batch, nd - 1):
        raise InputError("offdiag must have shape (B, dim - 1)")

    eabs = np.abs(e)
    radius = np.pad(eabs, ((0, 0), (1, 0))) + np.pad(eabs, ((0, 0), (0, 1)))
    lo_bound = np.min(d - radius, axis=1)
    hi_bound = np.max(d + radius, axis=1)
    span = np.maximum(hi_bound - lo_bound, 1.0)
    tols = np.maximum(tol, _STURM_TOL_ULPS * np.finfo(float).eps
                      * np.maximum(np.abs(lo_bound), np.abs(hi_bound)))
    lo = np.repeat((lo_bound - 1e-3 * span)[:, None], nd, axis=1)
    hi = np.repeat((hi_bound + 1e-3 * span)[:, None], nd, axis=1)

    e2 = e * e
    ks = np.arange(1, nd + 1)
    out = np.empty_like(d)
    live = np.arange(batch)             # stack rows of the matrices still bisecting

    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        count = np.zeros(mid.shape, dtype=np.int64)
        for q in minor_ratios(d, e2, mid):
            count += q < 0
        move_down = count >= ks
        hi = np.where(move_down, mid, hi)
        lo = np.where(move_down, lo, mid)
        done = np.max(hi - lo, axis=1) < tols
        if done.any():
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            if not keep.any():
                return out
            live, d, e2, tols, lo, hi = (
                arr[keep] for arr in (live, d, e2, tols, lo, hi))
    raise OracleError(
        f"Sturm bisection did not reach tol {tols[0]:.3g} in {max_iterations} "
        f"iterations (widest bracket {np.max(hi[0] - lo[0]):.3g})",
        index=int(live[0]))
