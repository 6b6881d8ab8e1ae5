"""ODE residual of solved eigenpairs: the check every command runs.

`attach_residuals` plugs every (eta, coefficient vector) pair of an
operator back into the original modulation ODE of the families module's
docstring.  A mode f is a finite trigonometric sum, so its residual R is
one too, on dim + 2 frequencies: the window's and one step of 2 past each
end.  `_fourier_residual` forms R's Fourier coefficients r^ exactly from
the coefficient vector, term by term with the product identities of
sin 2z and cos 2z.  It reads the family table, never the operator
entries, so its independence is the ODE's from the recurrence.  Every
basis function is at most 1 in modulus, so sup_z |R(z)| <= ||r^||_1
(Zygmund, Trigonometric Series, 1959): a mode that passes is verified at
every z, with no sample points.

`spectrum`, `modes` and `figure` load this module alone; `verify`
imports the residual policy from here.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .families import SolutionFamily
from .serialize import format_number
from .spectra import SpectralDecomposition

__all__ = ["ODE_RESIDUAL_TOL", "attach_residuals"]

ODE_RESIDUAL_TOL = 1e-9        # times (1 + |eta| + a * dim)

# modes per block of the residual policy: each temporary of a block holds
# at most (dim + 2) x 64 values, at any dim
_BLOCK_MODES = 64

# the sign with which a basis folds frequency -mu onto mu: cos(-x) = cos x,
# sin(-x) = -sin x; exp(-i nu z) takes every frequency as it comes
_FOLD = {"exp": 0, "cos": 1, "sin": -1}


def _fourier_residual(family: SolutionFamily, a, etas: np.ndarray,
                      vectors: np.ndarray) -> np.ndarray:
    """r^, one row per mode: the Fourier coefficients of the ODE residual.

    vectors holds one coefficient column c per eta, and a is the coupling
    or a column of one per mode, shape (modes, 1).  On c phi_nu, with
    phi_nu = exp(-i nu z), cos(nu z) or sin(nu z) the family's basis, the
    terms of f'' + a sin(2z) (f' + i s f) + (eta - q a cos(2z)) f give

        f'' + eta f              (eta - nu^2) c phi_nu
        a sin 2z (f' + i s f)    w c (phi_(nu-2) - phi_(nu+2)),  w = (a/2)(s - nu)
        -q a cos 2z f            -h c (phi_(nu-2) + phi_(nu+2)),  h = (a/2) q

    from f' + i s f = i (s - nu) c exp(-i nu z) and sin 2z exp(-i nu z) =
    (exp(-i(nu-2)z) - exp(-i(nu+2)z)) / 2i, so a real c gives real
    coefficients; for the spin-0 bases (s = 0) from -nu sin 2z sin nu z =
    -(nu/2)(cos(nu-2)z - cos(nu+2)z) and nu sin 2z cos nu z =
    -(nu/2)(sin(nu-2)z - sin(nu+2)z); and cos 2z phi_nu = (phi_(nu-2) +
    phi_(nu+2)) / 2 for every basis.  Column j is frequency nu_0 - 2 + 2j.
    A cos or sin kind's first column, at nu_0 - 2 <= 0, is folded onto
    frequency 2 - nu_0 with _FOLD's sign and dropped; for kg-sin-even that
    frequency is 0, and sin 0 = 0.  Each entry is elementwise arithmetic on
    its own mode, so a mode gets the same bits in any block.
    """
    nu, basis = family.nu, family._row.basis
    w = 0.5 * a * (family.spin_sign - nu)
    h = 0.5 * a * family.q
    c = vectors.T
    rhat = np.zeros((len(etas), family.dim + 2), np.result_type(c, etas))
    np.multiply(etas[:, None] - nu * nu, c, out=rhat[:, 1:-1])
    rhat[:, :-2] += (w - h) * c
    rhat[:, 2:] -= (w + h) * c
    if _FOLD[basis]:
        rhat[:, int(2 - nu[0])] += _FOLD[basis] * rhat[:, 0]
        rhat = rhat[:, 1:]
    return rhat


def _batch_residual_maxima(family: SolutionFamily, a, etas: np.ndarray,
                           vectors: np.ndarray):
    """The residual policy: per-mode (bounds, scales, passed).

    bounds[i] = ||r^||_1 of mode i (`_fourier_residual`), which bounds
    |R(z)| at every z.  A mode passes when its bound is below
    ODE_RESIDUAL_TOL * scale, scale = 1 + |eta| + a * dim.  a is the
    coupling of every mode, or one per mode (shape (modes,)), so the modes
    of one family at several couplings run in one call: verify judges each
    family of a dimension group this way.  The modes (columns of vectors
    and etas) run in blocks of at most _BLOCK_MODES, so the working set is
    a few (_BLOCK_MODES, dim + 2) arrays at any dim.  Every step is
    elementwise or sums one mode's row, so a mode's bound has the same bits
    in any block and beside any other coupling.

    A mode whose eta and coefficients are finite but whose bound or scale
    is not has terms past double range (a q c near a = 1e308): that is the
    checker's range, not a wrong eigenpair, and is refused as an
    InputError, naming the first such mode's coupling, once every block is
    done.  A mode with non-finite coefficients fails.
    """
    a = np.asarray(a, dtype=float)
    bounds = np.empty(len(etas))
    with np.errstate(over="ignore", invalid="ignore"):      # past range: refused below
        for start in range(0, len(etas), _BLOCK_MODES):
            cols = slice(start, start + _BLOCK_MODES)
            rhat = _fourier_residual(family, a[cols, None] if a.ndim else a,
                                     etas[cols], vectors[:, cols])
            np.sum(np.abs(rhat), axis=1, out=bounds[cols])
        scales = 1.0 + np.abs(etas) + a * family.dim
    past = ~(np.isfinite(bounds) & np.isfinite(scales))
    past &= np.isfinite(etas) & np.isfinite(vectors).all(axis=0)
    if past.any():
        first = float(np.broadcast_to(a, etas.shape)[np.argmax(past)])
        raise InputError(
            f"{family.kind.value} n = {family.n}: a = {format_number(first)} is past the range "
            "limit of the ODE residual check: its terms leave double range")
    return bounds, scales, bounds < ODE_RESIDUAL_TOL * scales


def attach_residuals(decomposition: SpectralDecomposition):
    """Attach the ODE residual column; returns (decomposition, passed).

    The column holds each mode's ||r^||_1, and passed[i] is the verdict of
    `_batch_residual_maxima` for etas[i].
    """
    bounds, _, passed = _batch_residual_maxima(
        decomposition.family, decomposition.a, decomposition.etas, decomposition.vectors)
    return decomposition.with_residuals(bounds), passed
