"""Laboratory parameter conversions and momentum mappings."""

import math

import numpy as np
import pytest

from incevolkov.constants import C_LIGHT, E_CHARGE, ELECTRON_MASS, HBAR, PROTON_MASS
from incevolkov.errors import InputError, OverdenseError
from incevolkov.families import FamilyKind, SolutionFamily
from incevolkov.physparams import (DeBroglieMomentum, LaserInput, PlasmaInput,
                                   WaveConfig, coupling_parameter,
                                   eta_to_longitudinal,
                                   field_amplitude_from_intensity,
                                   intensity_parameter, refractive_index)
from reference import coupling_to_mu0_ratio, dispersion, wavenumber_from

# reference inputs: Ti:Sa photon 1.563 eV, 100 MW/cm^2, plasma quantum 1 eV
LASER = LaserInput(photon_energy_ev=1.563, intensity_w_cm2=1e8)
PLASMA = PlasmaInput(plasma_energy_ev=1.0)

# frozen from direct evaluation of the defining formulas with CODATA values
F0_AT_1E8 = 2.7449237281457197e7       # sqrt(2 * 1e12 / (eps0 c)), V/m
A_REFERENCE = 13.861740521205018
MU0_REFERENCE = 6.78168737984152e-6
N_M_REFERENCE = 0.7685453911282961


class TestFieldAmplitude:
    def test_zero_intensity(self):
        assert field_amplitude_from_intensity(0.0) == 0.0

    def test_reference_value(self):
        assert field_amplitude_from_intensity(1e8) == pytest.approx(
            F0_AT_1E8, rel=1e-12)

    def test_square_root_scaling(self):
        f1 = field_amplitude_from_intensity(3.7e6)
        f4 = field_amplitude_from_intensity(4 * 3.7e6)
        assert f4 == pytest.approx(2 * f1, rel=1e-12)

    def test_negative_intensity_rejected(self):
        with pytest.raises(InputError):
            field_amplitude_from_intensity(-1.0)


class TestRefractiveIndex:
    def test_reference_inputs(self):
        assert refractive_index(1.0, 1.563) == pytest.approx(0.7685, abs=1e-4)
        assert refractive_index(1.0, 1.563) == pytest.approx(
            N_M_REFERENCE, rel=1e-14)

    def test_vacuum_limit(self):
        assert refractive_index(1e-9, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_overdense_boundary(self):
        with pytest.raises(OverdenseError):
            refractive_index(1.0, 1.0)
        with pytest.raises(OverdenseError):
            refractive_index(2.0, 1.0)

    def test_one_underdense_message(self):
        # the index, the coupling and the wave config refuse alike
        laser, plasma = LaserInput(1.0, 1e8), PlasmaInput(2.0)
        messages = set()
        for refuse in (lambda: refractive_index(2.0, 1.0),
                       lambda: coupling_parameter(laser, plasma),
                       lambda: WaveConfig(laser, plasma)):
            with pytest.raises(OverdenseError, match="underdense") as info:
                refuse()
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_lambda_nm_pythagoras(self):
        for wp, w0 in [(1.0, 1.563), (0.3, 2.0), (0.9999, 1.0001), (1e-6, 1.0)]:
            n_m = refractive_index(wp, w0)
            lam = wp / w0
            assert abs(lam * lam + n_m * n_m - 1.0) < 1e-14


class TestCoupling:
    def test_reference_value(self):
        a = coupling_parameter(LASER, PLASMA)
        assert 13.5 <= a <= 14.3
        assert a == pytest.approx(13.86, abs=0.01)
        assert a == pytest.approx(A_REFERENCE, rel=1e-12)

    def test_zero_intensity(self):
        assert coupling_parameter(LaserInput(1.563, 0.0), PLASMA) == 0.0

    def test_mass_independent_bitwise(self):
        a_e = WaveConfig(LASER, PLASMA, ELECTRON_MASS).derived().a
        a_p = WaveConfig(LASER, PLASMA, PROTON_MASS).derived().a
        assert a_e == a_p

    def test_intensity_scaling(self):
        a1 = coupling_parameter(LaserInput(1.563, 2.5e7), PLASMA)
        a2 = coupling_parameter(LaserInput(1.563, 1e8), PLASMA)
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    def test_overdense_propagates(self):
        with pytest.raises(OverdenseError):
            coupling_parameter(LaserInput(0.5, 1e8), PLASMA)


class TestIntensityParameter:
    def test_reference_value(self):
        mu0 = intensity_parameter(LASER, ELECTRON_MASS)
        assert mu0 == pytest.approx(6.8e-6, rel=0.01)
        assert mu0 == pytest.approx(MU0_REFERENCE, rel=1e-12)

    def test_zero_intensity(self):
        assert intensity_parameter(LaserInput(1.563, 0.0), ELECTRON_MASS) == 0.0

    def test_ratio_identity(self):
        a = coupling_parameter(LASER, PLASMA)
        mu0 = intensity_parameter(LASER, ELECTRON_MASS)
        expected = 4 * ELECTRON_MASS * C_LIGHT ** 2 / (HBAR * PLASMA.omega_p)
        assert a / mu0 == pytest.approx(expected, rel=1e-12)
        assert coupling_to_mu0_ratio(ELECTRON_MASS, PLASMA) == pytest.approx(
            2.044e6, rel=1e-3)


class TestDispersion:
    def test_cutoff(self):
        d = dispersion(0.0, PLASMA)
        assert d.omega == PLASMA.omega_p
        assert math.isinf(d.v_ph)
        assert d.v_gr == 0.0

    def test_consistency_with_index(self):
        n_m = refractive_index(1.0, 1.563)
        k_y = n_m * LASER.omega0 / C_LIGHT
        d = dispersion(k_y, PLASMA)
        assert d.omega == pytest.approx(LASER.omega0, rel=1e-12)

    def test_velocity_product_sweep(self):
        for k_y in np.logspace(3, 9, 100):
            d = dispersion(k_y, PLASMA)
            assert d.v_ph * d.v_gr == pytest.approx(C_LIGHT ** 2, rel=1e-12)

    def test_round_trip(self):
        for omega in np.logspace(15.2, 17, 25):
            k_y = wavenumber_from(omega, PLASMA)
            assert dispersion(k_y, PLASMA).omega == pytest.approx(omega, rel=1e-12)

    def test_negative_ky_rejected(self):
        with pytest.raises(InputError):
            dispersion(-1.0, PLASMA)

    def test_below_cutoff_rejected(self):
        with pytest.raises(InputError):
            wavenumber_from(0.5 * PLASMA.omega_p, PLASMA)


class TestLaserPlasmaTypes:
    def test_a0_k0_identity(self):
        assert LASER.vector_potential * LASER.k0 == pytest.approx(
            LASER.field_amplitude, rel=1e-15)

    def test_invalid_laser(self):
        with pytest.raises(InputError):
            LaserInput(-1.0, 1e8)
        with pytest.raises(InputError):
            LaserInput(1.0, -1e8)

    def test_overdense_pair_rejected(self):
        with pytest.raises(OverdenseError):
            WaveConfig(LaserInput(1.0, 1e8), PlasmaInput(2.0))


class TestDerivedQuantities:
    def test_kappa_star_shell(self):
        d = WaveConfig(LASER, PLASMA).derived()
        eps_a0 = E_CHARGE * LASER.vector_potential / (HBAR * C_LIGHT)
        assert d.kappa_star ** 2 == pytest.approx(
            d.kappa ** 2 + eps_a0 ** 2, rel=1e-12)
        assert d.kappa_star > d.kappa

    def test_kappa_star_strong_field(self):
        # at extreme intensity the field term dominates the mass term
        laser = LaserInput(1.563, 1e30)
        d = WaveConfig(laser, PLASMA).derived()
        eps_a0 = E_CHARGE * laser.vector_potential / (HBAR * C_LIGHT)
        assert d.kappa_star == pytest.approx(
            math.hypot(d.kappa, eps_a0), rel=1e-14)
        assert d.kappa_star > 10 * d.kappa

    def test_velocities(self):
        d = WaveConfig(LASER, PLASMA).derived()
        assert d.v_ph == pytest.approx(C_LIGHT / d.n_m, rel=1e-15)
        assert d.v_gr == pytest.approx(C_LIGHT * d.n_m, rel=1e-15)
        assert d.v_ph * d.v_gr == pytest.approx(C_LIGHT ** 2, rel=1e-12)


class TestQuantizedMomentum:
    @pytest.mark.parametrize("kind,n,expected", [
        (FamilyKind.DIRAC_PLUS, 20, 20.0),
        (FamilyKind.DIRAC_PLUS, 1, 1.0),
        (FamilyKind.DIRAC_MINUS, 7, 7.0),
        (FamilyKind.KG_COS_EVEN, 1, 1.5),
        (FamilyKind.KG_COS_EVEN, 20, 20.5),
        (FamilyKind.KG_SIN_EVEN, 4, 4.5),
        (FamilyKind.KG_COS_ODD, 4, 4.0),
        (FamilyKind.KG_SIN_ODD, 4, 4.0),
    ])
    def test_values(self, kind, n, expected):
        assert SolutionFamily(kind, n).px_over_kp == expected

    def test_domain(self):
        with pytest.raises(InputError):
            SolutionFamily(FamilyKind.DIRAC_PLUS, 0)


class TestEtaMapping:
    def test_zero(self):
        lm = eta_to_longitudinal(0.0)
        assert lm.classification == "propagating"
        assert lm.k_dot_p == 0.0

    def test_algebra(self):
        assert eta_to_longitudinal(4.0).k_dot_p == 1.0

    def test_smallest_free_eigenvalue(self):
        # lowest eigenvalue of the n=1 spin-1/2 operator at a=0 is 0
        from incevolkov.operators import build_operator
        from incevolkov.spectra import solve_spectrum
        family = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        dec = solve_spectrum(build_operator(family, 0.0))
        assert eta_to_longitudinal(float(dec.etas[0])).k_dot_p == 0.0

    def test_evanescent(self):
        lm = eta_to_longitudinal(-3.5)
        assert lm.classification == "evanescent"
        assert lm.k_dot_p is None
        assert lm.eta_magnitude == 3.5


class TestDeBroglieMomentum:
    def test_shell_bookkeeping(self):
        m = DeBroglieMomentum(p0=2.0, px=1.0, py=0.0, pz=0.0, eta=4.0,
                              kappa_star_sq=3.0)
        assert m.p_squared == 3.0
        assert m.on_shell

    def test_off_shell_detected(self):
        m = DeBroglieMomentum(p0=2.0, px=1.0, py=0.0, pz=0.0, eta=4.0,
                              kappa_star_sq=2.5)
        assert not m.on_shell
