"""Eigensolution of the finite tridiagonal operators.

The operators are not symmetric, but every bond has super_ * sub > 0 for
a > 0, so a diagonal similarity turns them into real symmetric tridiagonal
matrices.  The primary solver is LAPACK's symmetric tridiagonal eigensolver
(scipy.linalg.eigh_tridiagonal).  `sturm_bisection_oracle` and the dense
check's Newton polish (verification module) share no numerical machinery
with it; both run the LAPACK-free leading-minor recurrence `minor_ratios`.

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

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import InputError, OracleError, StructuralError
from .operators import TridiagonalOperator

__all__ = [
    "RELATIVE_GAP_THRESHOLD",
    "SpectralDecomposition",
    "symmetrize",
    "solve_spectrum",
    "minor_ratios",
    "sturm_bisection_oracle",
]

# distinctness threshold for the gap diagnostic, relative to spectral spread
RELATIVE_GAP_THRESHOLD = 1e-8


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
        p = T.super_[i] * T.sub[i]
        if p > 0.0:
            off[i] = np.sqrt(p)
            scale[i + 1] = scale[i] * np.sqrt(T.super_[i] / T.sub[i])
        elif T.super_[i] == 0.0 and T.sub[i] == 0.0:
            off[i] = 0.0
            scale[i + 1] = scale[i]
        else:
            raise StructuralError(
                f"bond {i}: super*sub = {p!r} <= 0 at a = {T.a}; "
                "operator is not symmetrizable (wrong recurrence?)")
    return T.diag.copy(), off, scale


def solve_spectrum(T: TridiagonalOperator) -> SpectralDecomposition:
    """Full eigendecomposition, ascending eigenvalues, normalized vectors."""
    diag, off, scale = symmetrize(T)
    if T.dim == 1:
        etas = diag.copy()
        vectors = np.ones((1, 1))
    else:
        etas, y = scipy.linalg.eigh_tridiagonal(diag, off)
        vectors = y / scale[:, None]
        vectors = vectors / np.linalg.norm(vectors, axis=0)
    for k in range(vectors.shape[1]):
        j = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[j, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return SpectralDecomposition(
        family=T.family, a=T.a, etas=etas, vectors=vectors,
        k_labels=np.arange(1, T.dim + 1), scale=scale)


def minor_ratios(d, b, x):
    """Yield q_i = p_i / p_{i-1}, the leading-minor ratios of T - x I, by row.

    T has diagonal d and bond products b = super * sub: q_0 = d_0 - x and
    q_i = d_i - x - b_{i-1} / q_{i-1}, vectorized over shifts x.  Ratios are
    yielded unclamped; as a divisor, one below pivmin (scaled by max |b|) in
    magnitude becomes -pivmin, as in LAPACK dstebz.
    """
    pivmin = max(float(np.abs(b).max(initial=0.0)), 1.0) * np.finfo(float).tiny * 1e4
    q = d[0] - x
    yield q
    for i in range(1, len(d)):
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        q = d[i] - x - b[i - 1] / q
        yield q


def sturm_bisection_oracle(diag: np.ndarray, offdiag: np.ndarray,
                           tol: float = 1e-11,
                           max_iterations: int = 250) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix by Sturm bisection.

    Counts eigenvalues below x as negative `minor_ratios` (with b = e^2) and
    bisects each index on a Gershgorin-bounded interval until its bracket
    is narrower than tol.  Independent of LAPACK by construction.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    nd = len(d)
    if nd == 0:
        return np.empty(0)
    if nd == 1:
        return d.copy()
    if len(e) != nd - 1:
        raise InputError("offdiag must have length dim - 1")

    eabs = np.abs(e)
    radius = np.zeros(nd)
    radius[0] = eabs[0]
    radius[-1] = eabs[-1]
    if nd > 2:
        radius[1:-1] = eabs[:-1] + eabs[1:]
    lo_bound = float(np.min(d - radius))
    hi_bound = float(np.max(d + radius))
    span = max(hi_bound - lo_bound, 1.0)
    lo = np.full(nd, lo_bound - 1e-3 * span)
    hi = np.full(nd, hi_bound + 1e-3 * span)

    e2 = e * e
    ks = np.arange(nd)

    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        count = np.zeros(nd, dtype=np.int64)
        for q in minor_ratios(d, e2, mid):
            count += q < 0
        move_down = count >= ks + 1
        hi = np.where(move_down, mid, hi)
        lo = np.where(move_down, lo, mid)
        if float(np.max(hi - lo)) < tol:
            return 0.5 * (lo + hi)
    raise OracleError(
        f"Sturm bisection did not reach tol {tol} in {max_iterations} iterations")
