"""ODE residual of solved eigenpairs: the check every command runs.

`attach_residuals` plugs every (eta, coefficient vector) pair of an
operator back into the original modulation ODE.  Derivatives of the finite
trigonometric sum are themselves exact finite sums, so the residual is
evaluated analytically, never by numerical differentiation, in blocks of
at most _BLOCK_MODES modes, so its memory grows with dim, not dim^2.  This
is the ground truth for every recurrence in the operators module: it
shares the families module's basis evaluator with the modulation module,
so its independence is the ODE's from the recurrence.

`spectrum`, `modes` and `figure` load this module alone; the cross-checks
that only `verify` runs live in the verification module, which imports
the sample points and the residual policy from here.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .constants import SAMPLING_SEED
from .errors import InputError
from .families import SolutionFamily, shared_bases
from .serialize import format_number
from .spectra import SpectralDecomposition

__all__ = ["ODE_RESIDUAL_TOL", "seeded_angles", "attach_residuals"]

ODE_RESIDUAL_TOL = 1e-9        # times (1 + |eta| + a * dim)

# ODE residual sample points: equidistant plus seeded random, in z = xi/2
_N_EQUIDISTANT = 256
_N_RANDOM = 32
# modes per block of the residual policy: each (samples, modes) temporary
# of a block holds at most 288 x 64 values (288 KiB complex), at any dim
_BLOCK_MODES = 64


def seeded_angles(seed: int, count: int) -> np.ndarray:
    """`count` angles in [0, 2 pi): 2 pi * random.Random(seed).random(), drawn in turn.

    The standard library's Mersenne Twister (Matsumoto & Nishimura, ACM
    TOMACS 8, 1998), seeded with the integer itself.  Python guarantees that
    `random()` gives the same sequence for the same seed across versions
    (the `random` module's "Notes on Reproducibility"), and an integer seed
    does not pass through string hashing, so PYTHONHASHSEED does not move
    the angles.
    """
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return np.array([2.0 * math.pi * rng.random() for _ in range(count)])


def _sample_points(seed: int) -> np.ndarray:
    z_eq = np.linspace(0.0, 2.0 * np.pi, _N_EQUIDISTANT, endpoint=False)
    return np.concatenate([z_eq, seeded_angles(seed, _N_RANDOM)])


class _OdeSamples(NamedTuple):
    """What every ODE residual of one family reads at the seeded sample points.

    None of it depends on a, so one build serves every coupling.
    """

    family: SolutionFamily
    basis: list            # [B, B', B''], one row per sample point
    sin2z: np.ndarray      # sin(2z), cos(2z) as columns
    cos2z: np.ndarray


def _ode_samples(families, seed: int) -> dict:
    """{family: _OdeSamples}: each basis set evaluated once (`shared_bases`)."""
    z = _sample_points(seed)
    sin2z, cos2z = np.sin(2.0 * z)[:, None], np.cos(2.0 * z)[:, None]
    return {fam: _OdeSamples(fam, basis, sin2z, cos2z)
            for fam, basis in shared_bases(families, z, derivatives=2).items()}


def _residual_values_batch(samples: _OdeSamples, a: float, etas: np.ndarray,
                           vectors: np.ndarray) -> np.ndarray:
    """Residual values, shape (samples, modes), from one prebuilt basis.

    f'' + a sin(2z) (f' + i s f) + (eta - q a cos(2z)) f, accumulated in
    place: each product and sum is the one the plain expression rounds, in
    the same order, with two (samples, modes) temporaries fewer.
    """
    B, Bp, Bpp = samples.basis
    q = samples.family.q
    s = samples.family.spin_sign
    V = vectors.astype(B.dtype, copy=False)     # cast once, not per product
    f = B @ V
    coupling = Bp @ V
    if s != 0:
        coupling += 1j * s * f
    coupling *= a * samples.sin2z
    values = Bpp @ V
    values += coupling
    values += np.multiply(etas - q * a * samples.cos2z, f, out=f)
    return values


def _batch_residual_maxima(samples: _OdeSamples, a: float, etas: np.ndarray,
                           vectors: np.ndarray):
    """The residual policy: per-mode (maxima, scales, passed).

    The residuals are evaluated in blocks of at most _BLOCK_MODES modes
    (columns of vectors and etas), so the working set is the basis plus a
    few (samples, _BLOCK_MODES) arrays and one (dim, _BLOCK_MODES) cast of
    the vectors at any dim.  A mode passes when its max |residual| over the
    sample points is below ODE_RESIDUAL_TOL * scale, scale = 1 + |eta| +
    a * dim.  The rounding error of the blocked sums stays below 2.4e-15 *
    scale (measured against `verification._residual_values_compensated` at
    the default seed's sample points for all six kinds at n <= 60, a in
    {0.5, 1, 5, 14, 20, 50}: at most 2.34e-15, at dirac-minus n = 51, a =
    20), and below 4.3e-15 * scale at n in {100, 200, 300}, a in {1, 14,
    50} (every 7th mode: at most 4.21e-15, at kg-sin-odd n = 300, a = 50),
    more than five orders of magnitude under the tolerance.

    A mode whose eta and coefficients are finite but whose residual is not
    has terms past double range (q a cos 2z f near a = 1e308): that is the
    checker's range, not a wrong eigenpair, and is refused as an
    InputError once every block is done.  A mode with non-finite
    coefficients fails.
    """
    maxima = np.empty(len(etas))
    with np.errstate(over="ignore", invalid="ignore"):      # past range: refused below
        for start in range(0, len(etas), _BLOCK_MODES):
            cols = slice(start, start + _BLOCK_MODES)
            values = _residual_values_batch(samples, a, etas[cols], vectors[:, cols])
            np.max(np.abs(values), axis=0, out=maxima[cols])
        scales = 1.0 + np.abs(etas) + a * samples.family.dim
    past = ~np.isfinite(maxima)
    if past.any() and (past & np.isfinite(etas) & np.isfinite(vectors).all(axis=0)).any():
        fam = samples.family
        raise InputError(
            f"{fam.kind.value} n = {fam.n}: a = {format_number(a)} is past the range "
            "limit of the ODE residual check: its terms leave double range")
    return maxima, scales, maxima < ODE_RESIDUAL_TOL * scales


def attach_residuals(decomposition: SpectralDecomposition,
                     seed: int = SAMPLING_SEED):
    """Attach the ODE residual column; returns (decomposition, passed).

    passed[i] is the verdict of `_batch_residual_maxima` for etas[i].
    """
    family = decomposition.family
    maxima, _, passed = _batch_residual_maxima(
        _ode_samples([family], seed)[family], decomposition.a,
        decomposition.etas, decomposition.vectors)
    return decomposition.with_residuals(maxima), passed
