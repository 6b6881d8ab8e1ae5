"""Modulation functions, envelope density, contrast, harmonic strengths."""

import math

import numpy as np
import pytest

from incevolkov.errors import InputError
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.modulation import (ModulationFunction, contrast,
                                   envelope_density, eval_polynomial_part,
                                   harmonic_strengths)
from incevolkov.operators import build_dirac_operator, build_operator
from incevolkov.spectra import solve_spectrum


def _mode(kind, n, a, k_label):
    dec = solve_spectrum(build_operator(SolutionFamily(kind, n), a))
    return ModulationFunction.from_decomposition(dec, k_label)


class TestPolynomialPart:
    def test_constant_mode(self):
        fam = SolutionFamily(FamilyKind.KG_COS_EVEN, 2)
        c = np.array([1.0, 0.0, 0.0])
        for xi in (0.0, 0.7, -2.0, np.pi):
            assert eval_polynomial_part(fam, c, xi) == pytest.approx(1.0)

    def test_single_exponential_harmonic(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)      # window r = 0, 1
        c = np.array([0.0, 1.0])
        assert eval_polynomial_part(fam, c, 0.0) == pytest.approx(1.0)
        assert eval_polynomial_part(fam, c, np.pi) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 2)
        with pytest.raises(InputError):
            eval_polynomial_part(fam, np.ones(3), 0.0)

    @pytest.mark.parametrize("kind", [FamilyKind.KG_COS_EVEN,
                                      FamilyKind.KG_COS_ODD,
                                      FamilyKind.KG_SIN_ODD,
                                      FamilyKind.KG_SIN_EVEN])
    def test_spin0_values_real(self, kind):
        dec = solve_spectrum(build_operator(SolutionFamily(kind, 4), 7.0))
        xi = np.linspace(-np.pi, np.pi, 64)
        values = eval_polynomial_part(dec.family, dec.vectors[:, 0], xi)
        assert np.isrealobj(values)

    def test_array_and_scalar_agree(self):
        mod = _mode(FamilyKind.DIRAC_PLUS, 3, 5.0, 2)
        xi = np.array([0.3, 1.1])
        arr = mod.polynomial_part(xi)
        assert arr[0] == pytest.approx(mod.polynomial_part(0.3), rel=1e-14)


class TestEnvelopeDensity:
    def test_free_limit_flat(self):
        xi = np.linspace(-np.pi, np.pi, 33)
        assert np.all(envelope_density(0.0, xi) == 1.0)

    def test_void_depth_a14(self):
        v = envelope_density(14.0, 0.0)
        assert v == pytest.approx(math.exp(-14.0), rel=1e-12)
        assert v == pytest.approx(8.3e-7, rel=1e-2)

    def test_peak_exact_one(self):
        assert envelope_density(20.0, np.pi) == 1.0
        assert envelope_density(20.0, -np.pi) == 1.0

    def test_monotone_on_half_period(self):
        xi = np.linspace(0.0, np.pi, 2001)
        v = envelope_density(9.0, xi)
        assert np.all(np.diff(v) > 0.0)

    def test_errors(self):
        with pytest.raises(InputError):
            envelope_density(-1.0, 0.0)


class TestContrast:
    def test_free_limit(self):
        assert contrast(0.0) == (1.0, 1.0)

    def test_reference(self):
        amp, dens = contrast(14.0)
        assert amp == pytest.approx(1096.6331584284585, rel=1e-12)
        assert dens == pytest.approx(1202604.2841647768, rel=1e-12)

    def test_exponent_law(self):
        a = 3.7
        assert contrast(2 * a)[0] == pytest.approx(contrast(a)[0] ** 2, rel=1e-12)


class TestModulationFunction:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_periodicity(self, kind):
        mod = _mode(kind, 3, 6.0, 1)
        xi = np.linspace(-2.0, 2.0, 57)
        v0 = np.atleast_1d(mod.value(xi))
        v1 = np.atleast_1d(mod.value(xi + mod.period))
        assert np.max(np.abs(v1 - v0)) < 1e-12 * np.max(np.abs(v0))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_density_two_pi_periodic(self, kind):
        mod = _mode(kind, 3, 6.0, 2)
        xi = np.linspace(-2.0, 2.0, 57)
        d0 = np.atleast_1d(mod.density(xi))
        d1 = np.atleast_1d(mod.density(xi + 2 * np.pi))
        assert np.max(np.abs(d1 - d0)) < 1e-12 * np.max(d0)

    @pytest.mark.parametrize("kind,parity", [
        (FamilyKind.KG_COS_EVEN, +1), (FamilyKind.KG_COS_ODD, +1),
        (FamilyKind.KG_SIN_ODD, -1), (FamilyKind.KG_SIN_EVEN, -1)])
    def test_parity(self, kind, parity):
        mod = _mode(kind, 4, 8.0, 1)
        xi = np.linspace(0.1, 3.0, 31)
        left = np.atleast_1d(mod.value(-xi))
        right = parity * np.atleast_1d(mod.value(xi))
        assert np.max(np.abs(left - right)) < 1e-12 * np.max(np.abs(right))

    def test_product_structure(self):
        mod = _mode(FamilyKind.DIRAC_PLUS, 2, 5.0, 3)
        xi = 1.234
        assert mod.value(xi) == pytest.approx(
            mod.polynomial_part(xi) * math.exp(-(5.0 / 4.0) * math.cos(xi)))


class TestHarmonicStrengths:
    def test_free_limit_single_spikes(self):
        dec = solve_spectrum(build_dirac_operator(3, 0.0))
        rows = harmonic_strengths(dec)
        for k in range(1, dec.dim + 1):
            strengths = sorted(s for kk, _, s in rows if kk == k)
            assert strengths[-1] == pytest.approx(1.0, abs=1e-24)
            assert sum(strengths[:-1]) < 1e-24

    def test_slices_sum_to_one(self):
        dec = solve_spectrum(build_dirac_operator(20, 14.0))
        rows = harmonic_strengths(dec)
        for k in range(1, dec.dim + 1):
            total = sum(s for kk, _, s in rows if kk == k)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_ordering(self):
        dec = solve_spectrum(build_dirac_operator(2, 3.0))
        rows = harmonic_strengths(dec)
        keys = [(k, r) for k, r, _ in rows]
        assert keys == sorted(keys)

    def test_determinism_under_resolve(self):
        d1 = solve_spectrum(build_dirac_operator(8, 14.0))
        d2 = solve_spectrum(build_dirac_operator(8, 14.0))
        assert harmonic_strengths(d1) == harmonic_strengths(d2)


class TestSampleDensity:
    """ModulationFunction.density sampled on a phase grid over [-pi, pi]."""

    def test_constant_mode_flat(self):
        mod = _mode(FamilyKind.KG_COS_EVEN, 1, 0.0, 1)   # eta = 0, constant
        values = mod.density(np.linspace(-np.pi, np.pi, 65))
        assert np.allclose(values, values[0], atol=1e-14)

    def test_even_symmetry(self):
        mod = _mode(FamilyKind.KG_COS_EVEN, 3, 6.0, 2)
        values = mod.density(np.linspace(-np.pi, np.pi, 129))
        assert np.allclose(values, values[::-1], atol=1e-13)

    def test_refinement_keeps_peak(self):
        # both grids contain the endpoints, where this mode has its peak
        mod = _mode(FamilyKind.KG_COS_EVEN, 1, 5.0, 1)
        coarse = float(np.max(mod.density(np.linspace(-np.pi, np.pi, 257))))
        fine = float(np.max(mod.density(np.linspace(-np.pi, np.pi, 513))))
        assert fine == pytest.approx(coarse, rel=1e-12)
