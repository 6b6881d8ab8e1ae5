"""ODE residual of solved eigenpairs: the check every command runs.

`attach_residuals` plugs every (eta, coefficient vector) pair of an
operator back into the original modulation ODE at once.  Derivatives of
the finite trigonometric sum are themselves exact finite sums, so the
residual is evaluated analytically, never by numerical differentiation, in
one batched product per operator.  This is the ground truth for every
recurrence in the operators module: it shares the families module's basis
evaluator with the modulation module, so its independence is the ODE's
from the recurrence.

`spectrum`, `modes` and `figure` load this module alone; the cross-checks
that only `verify` runs live in the verification module, which imports
the sample points and the residual policy from here.
"""

from __future__ import annotations

import functools
import math
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

# numpy's SeedSequence hash constants and PCG64 multiplier
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=32)
def seeded_angles(seed: int, count: int) -> np.ndarray:
    """`count` angles in [0, 2 pi): numpy.random.default_rng(seed).uniform(0, 2 pi, count).

    A pure-Python copy of numpy's stream, bit for bit, so that no command
    imports numpy.random.  The steps are numpy's (O'Neill, "PCG: A Family of
    Simple Fast Space-Efficient Statistically Good Algorithms for Random
    Number Generation", HMC-CS-2014-0905):

      * SeedSequence: the seed's 32-bit words (least significant first) are
        hashed into a pool of 4 words and mixed; 8 words drawn from the pool
        form the 128-bit PCG64 state seed and stream increment;
      * PCG64: s <- s * M + inc mod 2^128, output XSL-RR (hi ^ lo, rotated
        right by the top 6 bits of s);
      * double u = (u64 >> 11) * 2^-53, angle = 0 + 2 pi * u.

    The angles are a pure function of (seed, count), so they are cached;
    the array is read-only.
    """
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append((seed >> 32 * len(words)) & _MASK32)

    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32
                                        for i in range(0, 8, 2))
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    s = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128

    angles = []
    for _ in range(count):
        s = (s * _PCG64_MULTIPLIER + inc) & _MASK128
        rot = s >> 122
        x = ((s >> 64) ^ s) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        angles.append(2.0 * math.pi * ((x >> 11) * 2.0 ** -53))
    out = np.array(angles)
    out.setflags(write=False)
    return out


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

    A mode passes when its max |residual| over the sample points is below
    ODE_RESIDUAL_TOL * scale, scale = 1 + |eta| + a * dim.  The rounding
    error of the batched sums stays below 3e-15 * scale (measured against
    `verification._residual_values_compensated` for all six kinds at
    n <= 60, a <= 50), more than five orders of magnitude under the
    tolerance.

    A mode whose eta and coefficients are finite but whose residual is not
    has terms past double range (q a cos 2z f near a = 1e308): that is the
    checker's range, not a wrong eigenpair, and is refused as an
    InputError.  A mode with non-finite coefficients fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):      # past range: refused below
        values = _residual_values_batch(samples, a, etas, vectors)
        scales = 1.0 + np.abs(etas) + a * samples.family.dim
    maxima = np.max(np.abs(values), axis=0)
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
