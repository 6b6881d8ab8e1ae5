"""Eigensolution of the finite tridiagonal operators.

The operators are not symmetric, but every bond has super_ * sub > 0 for
a > 0, so a diagonal similarity turns them into real symmetric tridiagonal
matrices.  The primary solver is LAPACK's dense symmetric eigensolver
(numpy.linalg.eigh, dsyevd) on the symmetrized matrix; the dense check
(verification module) runs the general nonsymmetric one (dgeev) on the
unsymmetrized T.  The Sturm code and the dense check's Newton polish
share no numerical machinery with either; they run the LAPACK-free
leading-minor recurrence `minor_ratios` over stacks of equal-dimension
matrices.  `sturm_counts` counts the eigenvalues below each shift as
LAPACK dstebz does, monotone in the shift; `certified_radii` encloses
each of a matrix's eigenvalue estimates with two counts, at the smallest
radius of a doubling ladder that holds.

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

from .errors import InputError, StructuralError
from .operators import TridiagonalOperator

__all__ = [
    "MAX_SOLVE_DIM",
    "SpectralDecomposition",
    "symmetrize",
    "solve_spectrum",
    "minor_ratios",
    "sturm_counts",
    "certified_radii",
    "gershgorin_bounds",
]

# the dense solve holds about 6 dim x dim float64 arrays at its peak (RSS
# measured at 5.1-5.5 dim^2 doubles for dim 1000-3000); the cap keeps that
# under 1 GiB
_SOLVE_MEMORY_BYTES = 2 ** 30
MAX_SOLVE_DIM = math.isqrt(_SOLVE_MEMORY_BYTES // (6 * 8))      # 4729
# shifts per Sturm counting slice: 128 KiB per float64 temporary
_COUNT_SLICE = 2 ** 14
# the radii, in ulps of a matrix's largest Gershgorin bound, of the first
# pass of `certified_radii`; the widest is the primary solver's share of
# the verification's agreement gate
_CERTIFY_ULPS = (1, 2, 4, 8)


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


def _pivmin(b):
    """(B, 1): each matrix's pivmin, tiny * 1e4 * max(1, max |b|), as in LAPACK dstebz."""
    return (np.maximum(np.abs(b).max(axis=1, initial=0.0), 1.0)
            * np.finfo(float).tiny * 1e4)[:, None]


def minor_ratios(d, b, x):
    """Yield q_i = p_i / p_{i-1}, the leading-minor ratios of T - x I, by row.

    A stack of B equal-dimension matrices T with diagonals d, shape
    (B, dim), and bond products b = super * sub, shape (B, dim - 1), is
    shifted by x, shape (B, m): q_0 = d_0 - x and q_i = d_i - x - b_{i-1} /
    q_{i-1}, each of shape (B, m).  Every element sees the arithmetic of a
    lone matrix, so a matrix gets the same bits in any stack and at any m.
    Ratios are yielded unclamped; as a divisor, one below its matrix's
    `_pivmin` in magnitude becomes -pivmin, as in LAPACK dstebz.  A
    matrix's row coefficients broadcast over its shifts, so the working
    memory is a few (B, m) arrays at any dim.
    """
    pivmin = _pivmin(b)
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


def sturm_counts(d, b, x):
    """The number of eigenvalues below each shift x[:, j], shape (B, m).

    d, b and x are as in `minor_ratios`.  A ratio counts as negative when
    q < 0 or |q| < pivmin, that is q < pivmin: the pivot dstebz clamps to
    -pivmin counts, so an exact zero pivot cannot hide an eigenvalue and
    the count is monotone in the shift (Kahan, "Accurate eigenvalues of a
    symmetric tri-diagonal matrix", 1966).  Runs in column slices of at
    most _COUNT_SLICE shifts, so the recurrence's temporaries stay a few
    small arrays at any m.
    """
    pivmin = _pivmin(b)
    counts = np.empty(x.shape, dtype=np.intp)
    width = max(1, _COUNT_SLICE // len(x))
    for start in range(0, x.shape[1], width):
        cols = slice(start, start + width)
        count = np.zeros(x[:, cols].shape, dtype=np.intp)
        for q in minor_ratios(d, b, x[:, cols]):
            count += q < pivmin
        counts[:, cols] = count
    return counts


def gershgorin_bounds(d: np.ndarray, e: np.ndarray):
    """(lo, hi), shape (B,) each: the Gershgorin bounds of stacked symmetric tridiagonals.

    d has shape (B, dim) and e (B, dim - 1).  Every eigenvalue lies in
    [lo, hi], and max(|lo|, |hi|) is the matrix's infinity norm.
    """
    eabs = np.abs(e)
    radius = np.pad(eabs, ((0, 0), (1, 0))) + np.pad(eabs, ((0, 0), (0, 1)))
    return np.min(d - radius, axis=1), np.max(d + radius, axis=1)


def certified_radii(d, b, etas):
    """Per matrix, the smallest radius within which Sturm counts enclose every eta.

    d and b are as in `minor_ratios`, and etas, shape (B, dim), are sorted
    estimates of the eigenvalues.  A radius r encloses them when, for
    every k, count(eta_k - r) <= k - 1 and count(eta_k + r) >= k: the k-th
    eigenvalue then lies in [eta_k - r, eta_k + r], since the count is
    monotone in its shift (the shifts are rounded to doubles, which can
    widen the enclosure by half an ulp of eta_k).

    The first `sturm_counts` pass tries r = c eps B, with c in
    _CERTIFY_ULPS and B = max|Gershgorin bound|.  A matrix that it leaves
    uncertified, with finite etas, gets a second pass over the doubling
    ladder r = 2^j eps B, j >= 4 (eps B raised to at least pivmin, the
    count's resolution), up to the first radius past max|eta| + B, within
    which every eigenvalue lies of its eta.  A matrix gets the smallest r
    of either ladder that encloses every eta; as the rung below failed, r
    is at most twice the largest |eigenvalue - eta_k|.  Non-finite etas
    give inf.
    """
    lo, hi = gershgorin_bounds(d, np.sqrt(b))
    bound = np.maximum(np.abs(lo), np.abs(hi))
    radii = _first_enclosing(
        d, b, etas, bound[:, None] * (np.array(_CERTIFY_ULPS) * np.finfo(float).eps))
    rows = np.flatnonzero(np.isinf(radii) & np.isfinite(etas).all(axis=1))
    if len(rows):
        top = np.minimum(np.abs(etas[rows]).max(axis=1) + bound[rows], np.finfo(float).max)
        unit = np.maximum(bound[rows] * np.finfo(float).eps, _pivmin(b[rows])[:, 0])
        ladder = [2 * _CERTIFY_ULPS[-1] * unit]
        while np.any(ladder[-1] <= top):
            ladder.append(2.0 * ladder[-1])
        radii[rows] = _first_enclosing(d[rows], b[rows], etas[rows], np.stack(ladder, axis=1))
    return radii


def _first_enclosing(d, b, etas, radii):
    """Per matrix, the first of its ascending radii, shape (B, L), that encloses every eta, or inf.

    All B * L * 2 * dim shifts run in one `sturm_counts` pass.
    """
    batch, nd = d.shape
    sides = np.array([-1.0, 1.0])[:, None]      # eta - r and eta + r
    shifts = etas[:, None, None, :] + sides * radii[:, :, None, None]   # (B, L, 2, dim)
    counts = sturm_counts(d, b, shifts.reshape(batch, -1)).reshape(shifts.shape)
    ks = np.arange(1, nd + 1)
    enclosed = ((counts[:, :, 0] < ks) & (counts[:, :, 1] >= ks)).all(axis=2)
    first = np.argmax(enclosed, axis=1)
    return np.where(enclosed.any(axis=1), radii[np.arange(batch), first], np.inf)
