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
its Gershgorin bounds.  Given estimates of the eigenvalues, the oracle
counts at every midpoint of their predicted bisection paths in one pass
and bisects on from the first wrong prediction; its result does not
depend on the estimates.

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

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError, OracleError, StructuralError
from .operators import TridiagonalOperator

__all__ = [
    "MAX_SOLVE_DIM",
    "SpectralDecomposition",
    "symmetrize",
    "solve_spectrum",
    "minor_ratios",
    "sturm_bisection_oracle",
]

# the dense solve holds about 6 dim x dim float64 arrays at its peak (RSS
# measured at 5.1-5.5 dim^2 doubles for dim 1000-3000); the cap keeps that
# under 1 GiB
_SOLVE_MEMORY_BYTES = 2 ** 30
MAX_SOLVE_DIM = math.isqrt(_SOLVE_MEMORY_BYTES // (6 * 8))      # 4729
# a Sturm bracket need not be narrower than this many ulps of its matrix's
# largest Gershgorin bound: near one ulp, bisection cannot shrink it further
_STURM_TOL_ULPS = 8
# shifts per Sturm counting slice: 128 KiB per float64 temporary
_COUNT_SLICE = 2 ** 14


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
    scale[0] = 1 and scale[i + 1] = scale[i] * sqrt(super_[i] / sub[i]) (a
    ratio of 1 across a zero bond), a sequential product.  Eigenvectors
    map back as v = y / scale.  The first bond that cannot be symmetrized
    is named in the error.
    """
    with np.errstate(over="ignore"):            # an overflow is refused below
        p = T.super_ * T.sub
    positive = p > 0.0
    bad = (p == np.inf) | ~(positive | ((T.super_ == 0.0) & (T.sub == 0.0)))
    if bad.any():
        _refuse_bond(T, int(np.argmax(bad)))
    off = np.sqrt(np.where(positive, p, 0.0))
    ratio = np.sqrt(np.divide(T.super_, T.sub, out=np.ones_like(p), where=positive))
    return T.diag.copy(), off, np.cumprod(np.concatenate(([1.0], ratio)))


def _refuse_bond(T: TridiagonalOperator, i: int):
    """Raise the error for bond i, whose super*sub is not a positive double."""
    p = float(T.super_[i]) * float(T.sub[i])
    if p == np.inf:
        raise InputError(
            f"bond {i}: super*sub overflows at a = {T.a!r}; "
            "the coupling is too large for double precision")
    if p == 0.0 and np.sign(T.super_[i]) == np.sign(T.sub[i]):
        raise InputError(
            f"bond {i}: super*sub underflows at a = {T.a!r}; "
            "the coupling is too small for double precision")
    raise StructuralError(
        f"bond {i}: super*sub = {p!r} <= 0 at a = {T.a}; "
        "operator is not symmetrizable (wrong recurrence?)")


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
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=0)
    # from dirac n = 516 on, some columns' squares overflow: prescaled by
    # their largest entry, they still get a unit norm (and not v / inf = 0)
    huge = ~np.isfinite(norms)
    if huge.any():
        vectors[:, huge] /= np.max(np.abs(vectors[:, huge]), axis=0)
        norms[huge] = np.linalg.norm(vectors[:, huge], axis=0)
    vectors = vectors / norms
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
    lone matrix, so a matrix gets the same bits in any stack and at any m.
    Ratios are yielded unclamped; as a divisor, one below its matrix's
    pivmin (scaled by that matrix's max |b|) in magnitude becomes -pivmin,
    as in LAPACK dstebz.  A matrix's row coefficients broadcast over its
    shifts, so the working memory is a few (B, m) arrays at any dim.
    """
    pivmin = (np.maximum(np.abs(b).max(axis=1, initial=0.0), 1.0)
              * np.finfo(float).tiny * 1e4)[:, None]
    neg_pivmin = -pivmin
    largest_pivmin = pivmin.max()
    q = d[:, :1] - x
    yield q
    for i in range(1, d.shape[1]):
        # a clamp is rare: one reduction over the stack, blind to NaN ratios,
        # decides whether any is due
        if np.fmin.reduce(np.abs(q), axis=None, initial=np.inf) < largest_pivmin:
            q = np.where(np.abs(q) < pivmin, neg_pivmin, q)
        div = b[:, i - 1:i] / q
        q = d[:, i:i + 1] - x         # one (B, m) temporary fewer than d - x - div
        q -= div
        yield q


def _sturm_moves_down(d, b, x, ks):
    """Whether at least ks[j] eigenvalues lie below each shift x[:, j].

    x has shape (B, m) and ks (m,).  Counts the negative `minor_ratios` in
    column slices of at most _COUNT_SLICE shifts, so the counts and the
    recurrence's temporaries stay a few small arrays at any m.
    """
    moves_down = np.empty(x.shape, dtype=bool)
    width = max(1, _COUNT_SLICE // len(x))
    for start in range(0, x.shape[1], width):
        cols = slice(start, start + width)
        count = np.zeros(x[:, cols].shape, dtype=np.intp)
        for q in minor_ratios(d, b, x[:, cols]):
            count += q < 0
        moves_down[:, cols] = count >= ks[cols]
    return moves_down


def _guided_start(d, b, tols, lo, hi, guesses, max_iterations):
    """Bisection state after the verified prefix of each matrix's guessed path.

    Simulates the bisection of every index j with the decision guesses[:, j]
    < mid, from the brackets lo, hi to each matrix's stop level (at most
    max_iterations), then counts at every predicted midpoint, all levels in
    one `_sturm_moves_down` call.  A matrix's real path follows its
    predicted one up to and including the first level at which a count
    disagrees; returns the brackets (lo, hi) there, with every decision
    taken from its count, and that level.  A matrix whose counts agree
    everywhere ends at its stop level, with the brackets plain bisection
    reaches there.
    """
    guesses = np.asarray(guesses, dtype=float)
    if guesses.shape != d.shape:
        raise InputError("guesses must have the shape (B, dim) of diag")
    batch, nd = d.shape
    # one buffer, not a list of small arrays that fragment the heap; a
    # double-precision bisection closes in about 50 levels
    mids = np.empty((batch, min(max_iterations, 64), nd))
    predicted = np.empty(mids.shape, dtype=bool)
    stop = np.full(batch, max_iterations)       # levels on each predicted path
    pending = np.ones(batch, dtype=bool)
    path_lo, path_hi = lo, hi
    levels = 0
    while levels < max_iterations and pending.any():
        if levels == mids.shape[1]:
            mids, predicted = (np.concatenate((arr, np.empty_like(arr)), axis=1)
                               for arr in (mids, predicted))
        mid = mids[:, levels] = 0.5 * (path_lo + path_hi)
        down = predicted[:, levels] = guesses < mid
        path_hi = np.where(down, mid, path_hi)
        path_lo = np.where(down, path_lo, mid)
        levels += 1
        finished = pending & (np.max(path_hi - path_lo, axis=1) < tols)
        stop[finished] = levels
        pending &= ~finished
    if levels == 0:
        return lo, hi, np.zeros(batch, dtype=np.intp)
    mids = mids[:, :levels]                     # (B, levels, dim), rows contiguous
    down = _sturm_moves_down(d, b, mids.reshape(batch, -1),
                             np.tile(np.arange(1, nd + 1), levels)).reshape(mids.shape)
    wrong = (down != predicted[:, :levels]).any(axis=2)
    wrong &= np.arange(levels) < stop[:, None]
    level = np.where(wrong.any(axis=1), wrong.argmax(axis=1) + 1, stop)
    taken = (np.arange(levels) < level[:, None])[:, :, None]
    return (_last_move(mids, taken & ~down, lo),
            _last_move(mids, taken & down, hi), level)


def _last_move(mids, moved, start):
    """A bracket bound: the midpoint of the last level that moved it, or its start."""
    last = moved.shape[1] - 1 - np.argmax(moved[:, ::-1], axis=1)
    return np.where(moved.any(axis=1),
                    np.take_along_axis(mids, last[:, None], axis=1)[:, 0], start)


def sturm_bisection_oracle(diag: np.ndarray, offdiag: np.ndarray,
                           tol: float = 1e-11, max_iterations: int = 250,
                           guesses: Optional[np.ndarray] = None) -> np.ndarray:
    """All eigenvalues of stacked symmetric tridiagonal matrices by Sturm bisection.

    diag has shape (B, dim) and offdiag (B, dim - 1); the result has shape
    (B, dim).  Counts eigenvalues below x as negative `minor_ratios` (with
    b = e^2) and bisects each index on a Gershgorin-bounded interval.  A
    matrix stops at the first iteration at which its widest bracket is
    narrower than its own tolerance, max(tol, 8 eps max|Gershgorin bound|)
    (relative, as in LAPACK dstebz), and leaves the batch there, so it gets
    the bits it gets alone.  Independent of LAPACK by construction.

    guesses, shape (B, dim), are estimates of the sorted eigenvalues.  They
    let a guided pass check the whole predicted bisection path of every
    index in one recurrence pass (`_guided_start`); the lockstep loop then
    finishes only the matrices with a wrong prediction, from the first
    one.  Every decision is still taken from a count at the midpoint plain
    bisection reaches, so guesses change the time, never the result: it is
    bit-identical for any guesses, wrong or NaN ones included.
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
    level = np.zeros(batch, dtype=np.intp)      # bisection steps taken, per matrix
    if guesses is not None:
        lo, hi, level = _guided_start(d, e2, tols, lo, hi, guesses, max_iterations)
    ks = np.arange(1, nd + 1)
    out = np.empty_like(d)
    live = np.arange(batch)             # stack rows of the matrices still bisecting
    spent = []                          # (row, tol, widest bracket) out of iterations
    while True:
        width = np.max(hi - lo, axis=1)
        done = (level > 0) & (width < tols)     # judged after a step, never before
        out[live[done]] = 0.5 * (lo[done] + hi[done])
        over = ~done & (level >= max_iterations)
        spent += zip(live[over].tolist(), tols[over], width[over])
        keep = ~(done | over)
        if not keep.all():
            if not keep.any():
                break
            live, d, e2, tols, lo, hi, level = (
                arr[keep] for arr in (live, d, e2, tols, lo, hi, level))
        mid = 0.5 * (lo + hi)
        move_down = _sturm_moves_down(d, e2, mid, ks)
        hi = np.where(move_down, mid, hi)
        lo = np.where(move_down, lo, mid)
        level += 1
    if spent:
        index, row_tol, width = min(spent)
        raise OracleError(
            f"Sturm bisection did not reach tol {row_tol:.3g} in {max_iterations} "
            f"iterations (widest bracket {width:.3g})", index=index)
    return out
