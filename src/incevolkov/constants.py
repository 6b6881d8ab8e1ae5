"""Physical constants, CODATA 2018, SI units, and the spacetime check's sampling seed.

All spectral computation elsewhere in the package is done in dimensionless
units (hbar = c = 1, k_p = 1); these constants appear only at the
input/output boundary where laboratory quantities are converted.
"""

import math

C_LIGHT = 299792458.0          # speed of light (m/s, exact)
E_CHARGE = 1.602176634e-19     # elementary charge (C, exact)
H_PLANCK = 6.62607015e-34      # Planck constant (J s, exact)
HBAR = H_PLANCK / (2.0 * math.pi)
EPSILON_0 = 8.8541878128e-12   # vacuum permittivity (F/m)
ELECTRON_MASS = 9.1093837015e-31   # kg
PROTON_MASS = 1.67262192369e-27    # kg

EV = E_CHARGE                  # J per eV

PARTICLE_MASSES = {
    "electron": ELECTRON_MASS,
    "proton": PROTON_MASS,
}

SAMPLING_SEED = 0x1CE          # seed of the spacetime check's points (462)
