"""Laboratory inputs and derived wave/medium/particle quantities.

Converts photon energy, intensity and plasma frequency into the
dimensionless quantities the spectral solvers use, and maps quantum numbers
and eigenvalues back to particle momenta.

Conventions (SI everywhere at this boundary):
  * F0 is the peak electric field of a linearly polarized wave,
    I = eps0 c F0^2 / 2.
  * The vector-potential amplitude is A0 = F0 / k0 (volts), and the field
    coupling constant is eps_c = e / (hbar c) per volt-meter, so eps_c * A0
    has units 1/m and the dimensionless coupling is a = 4 eps_c A0 / k_p.
  * mu0 = e F0 / (m c omega0), the standard dimensionless intensity
    parameter (mass-dependent, unlike a).

The Drude refractive index n_m = sqrt(1 - (omega_p/omega)^2) requires an
underdense medium, omega_p < omega; anything else raises OverdenseError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .constants import (C_LIGHT, E_CHARGE, ELECTRON_MASS, EPSILON_0, EV, HBAR)
from .errors import InputError, OverdenseError
from .families import FamilyKind, SolutionFamily

__all__ = [
    "LaserInput", "PlasmaInput", "WaveConfig", "DerivedQuantities",
    "DeBroglieMomentum", "LongitudinalMomentum", "Dispersion",
    "field_amplitude_from_intensity", "refractive_index",
    "coupling_parameter", "intensity_parameter", "coupling_to_mu0_ratio",
    "dispersion", "wavenumber_from", "quantized_transverse_momentum",
    "eta_to_longitudinal", "electron_density_from_plasma_energy",
]

# tolerance for a user-supplied (plasma energy, electron density) pair
_DENSITY_CONSISTENCY_RTOL = 1e-10


def field_amplitude_from_intensity(intensity_w_cm2: float) -> float:
    """Peak field F0 = sqrt(2 I / (eps0 c)) in V/m from intensity in W/cm^2."""
    if intensity_w_cm2 < 0:
        raise InputError(f"intensity must be >= 0, got {intensity_w_cm2}")
    intensity_si = intensity_w_cm2 * 1e4
    return math.sqrt(2.0 * intensity_si / (EPSILON_0 * C_LIGHT))


def refractive_index(plasma_energy_ev: float, photon_energy_ev: float) -> float:
    """Drude index n_m = sqrt(1 - (omega_p/omega)^2), real only when underdense."""
    if plasma_energy_ev <= 0 or photon_energy_ev <= 0:
        raise InputError("energies must be positive")
    if plasma_energy_ev >= photon_energy_ev:
        raise OverdenseError(
            f"underdense condition omega_p < omega violated: "
            f"plasma energy {plasma_energy_ev} eV >= photon energy "
            f"{photon_energy_ev} eV (wave evanescent)")
    x = plasma_energy_ev / photon_energy_ev
    return math.sqrt(1.0 - x * x)


# Gaussian-units plasma-frequency relation omega_p^2 = 4 pi n_e e^2 / m_e,
# with e in statcoulomb (= 10 c e_SI) and m in grams.  The SI relation
# n_e e^2 / (eps0 m_e) differs by ~3e-10 relative because eps0 is a measured
# quantity in the 2019 SI; the Gaussian form is the defining one here and
# the consistency tolerance (1e-10) is tighter than that gap.
_E_STATC = 10.0 * C_LIGHT * E_CHARGE
_M_E_GRAM = ELECTRON_MASS * 1e3


def electron_density_from_plasma_energy(plasma_energy_ev: float) -> float:
    """Free-electron density (cm^-3) whose plasma frequency is hbar*omega_p."""
    omega_p = plasma_energy_ev * EV / HBAR
    return omega_p * omega_p * _M_E_GRAM / (4.0 * math.pi * _E_STATC * _E_STATC)


@dataclass(frozen=True)
class LaserInput:
    """Photon energy (eV) and intensity (W/cm^2) of the driving wave."""

    photon_energy_ev: float
    intensity_w_cm2: float

    def __post_init__(self):
        if self.photon_energy_ev <= 0:
            raise InputError("photon energy must be positive")
        if self.intensity_w_cm2 < 0:
            raise InputError("intensity must be >= 0")

    @property
    def omega0(self) -> float:
        """Circular frequency (rad/s)."""
        return self.photon_energy_ev * EV / HBAR

    @property
    def k0(self) -> float:
        """Vacuum wavenumber omega0/c (1/m)."""
        return self.omega0 / C_LIGHT

    @property
    def field_amplitude(self) -> float:
        """Peak electric field F0 (V/m)."""
        return field_amplitude_from_intensity(self.intensity_w_cm2)

    @property
    def vector_potential(self) -> float:
        """A0 = F0 / k0 (V)."""
        return self.field_amplitude / self.k0


@dataclass(frozen=True)
class PlasmaInput:
    """Plasma frequency as hbar*omega_p (eV); electron density optional.

    When a density is supplied it must reproduce the plasma energy to
    1e-10 relative.
    """

    plasma_energy_ev: float
    electron_density_cm3: Optional[float] = None

    def __post_init__(self):
        if self.plasma_energy_ev <= 0:
            raise InputError("plasma energy must be positive")
        if not 0.0 < self.k_p < math.inf:
            raise InputError(
                f"plasma energy {self.plasma_energy_ev!r} eV gives a plasma "
                f"wavenumber k_p = {self.k_p!r} 1/m, outside double range")
        if self.electron_density_cm3 is not None:
            implied = self.omega_p_from_density(self.electron_density_cm3)
            if not math.isclose(implied, self.omega_p,
                                rel_tol=_DENSITY_CONSISTENCY_RTOL):
                raise InputError(
                    f"electron density {self.electron_density_cm3} cm^-3 implies "
                    f"omega_p = {implied:.12e} rad/s, inconsistent with plasma "
                    f"energy {self.plasma_energy_ev} eV "
                    f"(omega_p = {self.omega_p:.12e} rad/s)")

    @staticmethod
    def omega_p_from_density(n_e_cm3: float) -> float:
        """omega_p^2 = 4 pi n_e e^2 / m_e (Gaussian form), density in cm^-3."""
        if n_e_cm3 <= 0:
            raise InputError("electron density must be positive")
        return math.sqrt(4.0 * math.pi * n_e_cm3 * _E_STATC * _E_STATC / _M_E_GRAM)

    @classmethod
    def from_density(cls, n_e_cm3: float) -> "PlasmaInput":
        omega_p = cls.omega_p_from_density(n_e_cm3)
        return cls(plasma_energy_ev=omega_p * HBAR / EV,
                   electron_density_cm3=n_e_cm3)

    @property
    def omega_p(self) -> float:
        return self.plasma_energy_ev * EV / HBAR

    @property
    def k_p(self) -> float:
        """Plasma wavenumber omega_p/c (1/m); the momentum quantum is hbar*k_p."""
        return self.omega_p / C_LIGHT


@dataclass(frozen=True)
class DerivedQuantities:
    """Everything the solvers and reports need, in one bundle."""

    n_m: float            # refractive index
    k_p: float            # plasma wavenumber (1/m)
    lam: float            # spin interaction eigenvalue magnitude sqrt(1 - n_m^2)
    a: float              # dimensionless coupling, mass-independent
    kappa: float          # m c / hbar (1/m)
    kappa_star: float     # dressed mass parameter (1/m)
    mu0: float            # dimensionless intensity parameter
    v_ph: float           # phase velocity (m/s)
    v_gr: float           # group velocity (m/s)


def coupling_parameter(laser: LaserInput, plasma: PlasmaInput) -> float:
    """Dimensionless coupling a = 4 eps_c A0 / k_p = 4 e F0 c / (hbar omega0 omega_p).

    Mass never enters: a is the work done by the peak electric force over a
    plasma wavelength in units of the plasma quantum energy.
    """
    _require_underdense(plasma, laser)
    eps_a0 = E_CHARGE * laser.vector_potential / (HBAR * C_LIGHT)   # 1/m
    a = 4.0 * eps_a0 / plasma.k_p
    if not math.isfinite(a):
        raise InputError(
            f"coupling a overflows double range at intensity "
            f"{laser.intensity_w_cm2!r} W/cm^2 and plasma energy "
            f"{plasma.plasma_energy_ev!r} eV")
    return a


def intensity_parameter(laser: LaserInput, particle_mass_kg: float) -> float:
    """mu0 = e F0 / (m c omega0)."""
    if particle_mass_kg <= 0:
        raise InputError("particle mass must be positive")
    return (E_CHARGE * laser.field_amplitude
            / (particle_mass_kg * C_LIGHT * laser.omega0))


def coupling_to_mu0_ratio(particle_mass_kg: float, plasma: PlasmaInput) -> float:
    """Exact ratio a / mu0 = 4 m c^2 / (hbar omega_p)."""
    if particle_mass_kg <= 0:
        raise InputError("particle mass must be positive")
    return 4.0 * particle_mass_kg * C_LIGHT * C_LIGHT / (HBAR * plasma.omega_p)


class Dispersion(NamedTuple):
    omega: float
    v_ph: float
    v_gr: float


def dispersion(k_y: float, plasma: PlasmaInput) -> Dispersion:
    """omega(k_y) = sqrt(omega_p^2 + (c k_y)^2) with phase/group velocities.

    At k_y = 0 the wave sits at cutoff: omega = omega_p, the phase velocity
    is reported infinite and the group velocity zero.
    """
    if k_y < 0:
        raise InputError("k_y must be >= 0")
    omega = math.sqrt(plasma.omega_p ** 2 + (C_LIGHT * k_y) ** 2)
    if k_y == 0:
        return Dispersion(omega=omega, v_ph=math.inf, v_gr=0.0)
    return Dispersion(omega=omega, v_ph=omega / k_y,
                      v_gr=C_LIGHT * C_LIGHT * k_y / omega)


def wavenumber_from(omega: float, plasma: PlasmaInput) -> float:
    """Invert the dispersion relation: k_y = sqrt(omega^2 - omega_p^2) / c."""
    if omega < plasma.omega_p:
        raise InputError(
            f"omega = {omega} rad/s below the plasma cutoff {plasma.omega_p} rad/s")
    return math.sqrt(omega * omega - plasma.omega_p ** 2) / C_LIGHT


def _require_underdense(plasma: PlasmaInput, laser: LaserInput) -> None:
    if plasma.plasma_energy_ev >= laser.photon_energy_ev:
        raise OverdenseError(
            f"underdense condition omega_p < omega violated: plasma energy "
            f"{plasma.plasma_energy_ev} eV >= photon energy "
            f"{laser.photon_energy_ev} eV")


@dataclass(frozen=True)
class WaveConfig:
    """A laser/plasma pair plus the test particle's mass."""

    laser: LaserInput
    plasma: PlasmaInput
    particle_mass_kg: float = ELECTRON_MASS

    def __post_init__(self):
        if self.particle_mass_kg <= 0:
            raise InputError("particle mass must be positive")
        _require_underdense(self.plasma, self.laser)

    def derived(self) -> DerivedQuantities:
        laser, plasma, mass = self.laser, self.plasma, self.particle_mass_kg
        n_m = refractive_index(plasma.plasma_energy_ev, laser.photon_energy_ev)
        lam = plasma.plasma_energy_ev / laser.photon_energy_ev
        kappa = mass * C_LIGHT / HBAR
        eps_a0 = E_CHARGE * laser.vector_potential / (HBAR * C_LIGHT)
        return DerivedQuantities(
            n_m=n_m,
            k_p=plasma.k_p,
            lam=lam,
            a=coupling_parameter(laser, plasma),
            kappa=kappa,
            kappa_star=math.hypot(kappa, eps_a0),
            mu0=intensity_parameter(laser, mass),
            v_ph=C_LIGHT / n_m,
            v_gr=C_LIGHT * n_m,
        )


def quantized_transverse_momentum(kind: FamilyKind | str, n: int) -> float:
    """px in units of hbar*k_p: (q + 1)/2 for the family's q(n)."""
    return SolutionFamily(FamilyKind(kind), n).px_over_kp


class LongitudinalMomentum(NamedTuple):
    """|k.p| in units of k_p^2 when eta >= 0, else an evanescent tag."""

    classification: str            # "propagating" or "evanescent"
    k_dot_p: Optional[float]       # sqrt(eta)/2, None when evanescent
    eta_magnitude: float


def eta_to_longitudinal(eta: float) -> LongitudinalMomentum:
    """Map an eigenvalue eta = 4 (k.p)^2 / k_p^4 to |k.p| in k_p^2 units.

    Negative eta has no real longitudinal momentum; it is classified as
    evanescent with |eta| recorded, not treated as an error.
    """
    if eta >= 0:
        return LongitudinalMomentum("propagating", 0.5 * math.sqrt(eta), eta)
    return LongitudinalMomentum("evanescent", None, abs(eta))


@dataclass(frozen=True)
class DeBroglieMomentum:
    """Four-momentum of one quantized mode, in units of hbar*k_p.

    Satisfies the dressed mass-shell p^2 = kappa_star_sq by construction of
    the builders in the verification module; kappa_star_sq may be negative
    for modes whose eta lies below the free-particle branch.
    """

    p0: float
    px: float
    py: float
    pz: float
    eta: float
    q: int
    n: int
    k_index: int
    kappa_star_sq: float

    @property
    def p_squared(self) -> float:
        return (self.p0 * self.p0 - self.px * self.px
                - self.py * self.py - self.pz * self.pz)

    @property
    def on_shell(self) -> bool:
        return math.isclose(self.p_squared, self.kappa_star_sq,
                            rel_tol=1e-9, abs_tol=1e-9)
