"""Finite solution families of the two modulation equations.

Both wave equations reduce, after the de Broglie Ansatz and the substitution
F = (trig polynomial) * exp[-(a/4) cos xi] with z = xi/2, to a second-order
periodic ODE.  For the spin-1/2 case the ODE is

    f'' + a sin(2z) (f' + i s f) + (eta - q a cos(2z)) f = 0,   s = +1 or -1,

and for the spin-0 case it is the classical Ince equation

    w'' + a sin(2z) w' + (eta - q a cos(2z)) w = 0.

Finite (polynomial) solutions exist only when q is an integer matched to the
truncation window of the trigonometric basis; the window and q are listed
per family below.  Each family at quantum number n yields a finite
tridiagonal eigenproblem whose eigenvalues eta quantize the longitudinal
momentum parameter, while q fixes the transverse momentum px = (q+1)/2 in
units of the plasma wavenumber k_p.

Family table (n >= 1).  `_ROWS` below holds these facts once; every
property of `SolutionFamily`, the operator entries, the basis evaluator
and the ODE residual's Fourier coefficients (the residual module) read
them from there:

    kind          q       s    basis in xi           window          dim   px/k_p
    ------------  ------  ---  --------------------  --------------  ----  ------
    dirac-plus    2n - 1  +1   exp(-i r xi)          r = -n+1 .. n   2n    n
    dirac-minus   2n - 1  -1   exp(-i r xi)          r = -n .. n-1   2n    n
    kg-cos-even   2n       0   cos(r xi)             r = 0 .. n      n+1   n + 1/2
    kg-cos-odd    2n - 1   0   cos((r+1/2) xi)       r = 0 .. n-1    n     n
    kg-sin-odd    2n - 1   0   sin((r+1/2) xi)       r = 0 .. n-1    n     n
    kg-sin-even   2n       0   sin(r xi)             r = 1 .. n      n     n + 1/2

In z = xi/2 each basis function is exp(-i nu z), cos(nu z) or sin(nu z)
with the z-frequency nu = 2 (r + shift), where the harmonic shift is 1/2
for the two odd classes and 0 otherwise.

The dirac-minus family solves the s = -1 equation; its window is the mirror
image of the dirac-plus window (complex conjugation plus z -> -z maps one
family onto the other at equal eta).  The four spin-0 families are the four
classical Ince polynomial classes; the two odd classes use half-integer
harmonics of xi and are therefore 2*pi-antiperiodic in xi (period 4*pi),
while their densities |w|^2 remain 2*pi-periodic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError


class FamilyKind(str, Enum):
    DIRAC_PLUS = "dirac-plus"
    DIRAC_MINUS = "dirac-minus"
    KG_COS_EVEN = "kg-cos-even"
    KG_COS_ODD = "kg-cos-odd"
    KG_SIN_ODD = "kg-sin-odd"
    KG_SIN_EVEN = "kg-sin-even"


class _Row(NamedTuple):
    q_minus_2n: int          # q = 2n + q_minus_2n
    spin_sign: int           # s of the i s f term; 0 for spin 0
    basis: str               # "exp": exp(-i nu z); "cos"/"sin": cos(nu z)/sin(nu z)
    bottom: tuple            # window bottom r0 = bottom[0] * n + bottom[1]
    top: int                 # window top r1 = n + top
    shift: float             # harmonic of xi carried by index r is r + shift


_ROWS = {
    #                            q-2n   s  basis  bottom   top  shift
    FamilyKind.DIRAC_PLUS:  _Row(-1,  +1, "exp", (-1, 1),  0, 0.0),
    FamilyKind.DIRAC_MINUS: _Row(-1,  -1, "exp", (-1, 0), -1, 0.0),
    FamilyKind.KG_COS_EVEN: _Row( 0,   0, "cos", ( 0, 0),  0, 0.0),
    FamilyKind.KG_COS_ODD:  _Row(-1,   0, "cos", ( 0, 0), -1, 0.5),
    FamilyKind.KG_SIN_ODD:  _Row(-1,   0, "sin", ( 0, 0), -1, 0.5),
    FamilyKind.KG_SIN_EVEN: _Row( 0,   0, "sin", ( 0, 1),  0, 0.0),
}

# accepted spellings on the CLI / in config files
FAMILY_ALIASES = {
    "dirac": FamilyKind.DIRAC_PLUS,
    "dirac+": FamilyKind.DIRAC_PLUS,
    "dirac-": FamilyKind.DIRAC_MINUS,
    **{k.value: k for k in FamilyKind},
}


def parse_family_kind(name: str) -> FamilyKind:
    try:
        return FAMILY_ALIASES[name.strip().lower()]
    except KeyError:
        valid = ", ".join(sorted(FAMILY_ALIASES))
        raise InputError(f"unknown family {name!r}; valid: {valid}") from None


@dataclass(frozen=True)
class SolutionFamily:
    """One finite solution family at fixed quantum number n."""

    kind: FamilyKind
    n: int

    def __post_init__(self):
        # a plain string spells the same family: the operator entries pick
        # their folds by identity with the members
        if not isinstance(self.kind, FamilyKind):
            try:
                object.__setattr__(self, "kind", FamilyKind(self.kind))
            except ValueError:
                valid = ", ".join(k.value for k in FamilyKind)
                raise InputError(f"unknown family kind {self.kind!r}; valid: {valid}") from None
        if self.n < 1:
            raise InputError(f"quantum number n must be >= 1, got {self.n}")

    @property
    def _row(self) -> _Row:
        return _ROWS[self.kind]

    @property
    def spin_sign(self) -> int:
        """Sign s of the i*s*f term: +1, -1, or 0 for the spin-0 families."""
        return self._row.spin_sign

    @property
    def q(self) -> int:
        """Integer parameter of the modulation ODE (truncation condition)."""
        return 2 * self.n + self._row.q_minus_2n

    @property
    def window(self) -> tuple[int, int]:
        """First and last index r of the basis window."""
        row = self._row
        return row.bottom[0] * self.n + row.bottom[1], self.n + row.top

    @property
    def dim(self) -> int:
        r0, r1 = self.window
        return r1 - r0 + 1

    @property
    def r_indices(self) -> np.ndarray:
        """Integer basis window (Fourier index for dirac kinds, harmonic
        counter for the spin-0 kinds)."""
        r0, r1 = self.window
        return np.arange(r0, r1 + 1)

    @property
    def xi_harmonics(self) -> np.ndarray:
        """Harmonic of xi carried by each basis function (half-integers for
        the odd spin-0 classes)."""
        return self.r_indices + self._row.shift

    def z_frequencies(self, r: np.ndarray) -> np.ndarray:
        """nu = 2 (r + shift): the frequency in z = xi/2 of index r (also
        outside the window, for the operator's closure rows)."""
        return 2.0 * (r + self._row.shift)

    @cached_property
    def nu(self) -> np.ndarray:
        """z-frequencies of the window, 2 * xi_harmonics; computed once, read-only."""
        nu = self.z_frequencies(self.r_indices)
        nu.setflags(write=False)
        return nu

    def basis(self, z: np.ndarray, derivatives: int = 0) -> list:
        """[B, B', ...] of the window at the samples z = xi/2: `evaluate_basis`."""
        return evaluate_basis(self._row.basis, self.nu, z, derivatives)

    @property
    def px_over_kp(self) -> float:
        """Quantized transverse momentum (q+1)/2 in units of hbar*k_p."""
        return 0.5 * (self.q + 1)

    @property
    def basis_label(self) -> str:
        r0, r1 = self.window
        arg = "(r+1/2) xi" if self._row.shift else "r xi"
        fn = self._row.basis
        label = f"exp(-i {arg})" if fn == "exp" else f"{fn}({arg})"
        return f"{label}, r = {r0}..{r1}"


ALL_KINDS = tuple(FamilyKind)


def evaluate_basis(fn: str, nu: np.ndarray, z: np.ndarray, derivatives: int = 0) -> list:
    """[B, B', ...]: the basis functions at the samples z = xi/2 (one row
    per sample, one column per frequency) and their first `derivatives` (at
    most 2) z-derivatives.

    fn is a basis of the family table: "exp" for exp(-i nu z), "cos" or
    "sin".  The derivatives are exact: B' = -i nu B, -nu sin(nu z) or
    nu cos(nu z), and B'' = -nu^2 B for every basis.  Every entry depends
    on its own z and nu alone, so a column slice of a wider evaluation has
    the bits of evaluating the slice's frequencies.
    """
    arg = np.multiply.outer(z, nu)
    if fn == "exp":
        B = np.exp(-1j * arg)
    else:
        B = np.cos(arg) if fn == "cos" else np.sin(arg)
    out = [B]
    if derivatives >= 1:
        if fn == "exp":
            out.append((-1j * nu) * B)
        else:
            out.append(-nu * np.sin(arg) if fn == "cos" else nu * np.cos(arg))
    if derivatives >= 2:
        out.append(-(nu * nu) * B)
    return out


def shared_bases(families, z: np.ndarray, derivatives: int = 0) -> dict:
    """{family: its [B, B', ...] at z}, each basis set evaluated once.

    A basis set is a (basis, shift) pair of `_ROWS`: exp(-i nu z), shared
    by both dirac kinds, and cos and sin at shift 0 and at shift 1/2.  Each
    set is evaluated over the widest window R0..R1 that its families span,
    and a family reads the columns r0 - R0 .. r1 - R0 of it: read-only
    views that carry the bits of `family.basis(z, derivatives)`.
    """
    spans = {}
    for fam in families:
        (r0, r1), key = fam.window, (fam._row.basis, fam._row.shift)
        low, high, _ = spans.get(key, (r0, r1, fam))
        spans[key] = min(low, r0), max(high, r1), fam
    sets = {key: (low, evaluate_basis(key[0], fam.z_frequencies(np.arange(low, high + 1)),
                                      z, derivatives))
            for key, (low, high, fam) in spans.items()}
    for _, values in sets.values():
        for v in values:
            v.setflags(write=False)         # the families share these columns
    out = {}
    for fam in families:
        (r0, r1), (low, values) = fam.window, sets[fam._row.basis, fam._row.shift]
        out[fam] = [v[..., r0 - low:r1 - low + 1] for v in values]
    return out
