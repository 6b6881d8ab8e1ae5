"""Modulation functions, envelope densities, contrast and harmonic strengths.

A solved mode is the product of a finite trigonometric polynomial (the
eigenvector of the tridiagonal operator, evaluated in its family basis) and
the common envelope exp[-(a/4) cos xi].  The squared envelope
exp[-(a/2) cos xi] carries the density structure: maxima at xi = +-pi,
an exponentially suppressed void at xi = 0, amplitude contrast e^(a/2) and
density contrast e^a between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .families import SolutionFamily
from .spectra import SpectralDecomposition

__all__ = [
    "ModulationFunction", "eval_polynomial_part", "envelope_density",
    "contrast", "harmonic_strengths",
]


def eval_polynomial_part(family: SolutionFamily, coefficients: np.ndarray,
                         xi) -> np.ndarray | complex:
    """Finite basis sum of one coefficient vector at phase xi.

    Complex for the dirac kinds (exponential basis), real-valued for the
    spin-0 kinds.  Accepts scalar or array xi.
    """
    c = np.asarray(coefficients)
    if len(c) != family.dim:
        raise InputError(
            f"coefficient vector has length {len(c)}, family dim is {family.dim}")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    values = family.basis(xi_arr / 2.0)[0] @ c
    return values if np.ndim(xi) else values[0]


@dataclass(frozen=True)
class ModulationFunction:
    """Evaluator for one mode's xi-dependent factor, polynomial x envelope."""

    family: SolutionFamily
    a: float
    eta: float
    k_index: int
    coefficients: np.ndarray

    @classmethod
    def from_decomposition(cls, decomposition: SpectralDecomposition,
                           k_label: int) -> "ModulationFunction":
        return cls(family=decomposition.family, a=decomposition.a,
                   eta=float(decomposition.etas[k_label - 1]),
                   k_index=k_label,
                   coefficients=decomposition.vector(k_label))

    @property
    def period(self) -> float:
        return self.family.xi_period

    def polynomial_part(self, xi):
        return eval_polynomial_part(self.family, self.coefficients, xi)

    def envelope(self, xi):
        return np.exp(-(self.a / 4.0) * np.cos(xi))

    def value(self, xi):
        return self.polynomial_part(xi) * self.envelope(xi)

    def density(self, xi):
        return np.abs(self.value(xi)) ** 2


def envelope_density(a: float, xi):
    """Squared envelope exp[-(a/2) cos xi] divided by its maximum exp[a/2].

    The value is exactly 1 at xi = +-pi.
    """
    if a < 0:
        raise InputError(f"coupling parameter a must be >= 0, got {a}")
    return np.exp(-(a / 2.0) * (np.cos(xi) + 1.0))


def contrast(a: float) -> tuple[float, float]:
    """(amplitude contrast e^(a/2), density contrast e^a).

    Amplitude contrast is max/min of |exp[-(a/4) cos xi]|; the density
    contrast is its square.  Both are reported since either may be meant by
    "the contrast" of the periodic structure.
    """
    if a < 0:
        raise InputError(f"coupling parameter a must be >= 0, got {a}")
    return math.exp(a / 2.0), math.exp(a)


def harmonic_strengths(decomposition: SpectralDecomposition) -> list[tuple[int, float, float]]:
    """Rows (k, r, strength) with strength the squared coefficient.

    Ordered by k ascending then r ascending; each k slice sums to 1 under
    the unit-norm convention.  r is the xi harmonic (half-integers for the
    odd spin-0 classes).
    """
    rows = []
    harmonics = decomposition.family.xi_harmonics
    for i, k in enumerate(decomposition.k_labels):
        v = decomposition.vectors[:, i]
        for r, c in zip(harmonics, v):
            rows.append((int(k), float(r), float(c * c)))
    return rows
