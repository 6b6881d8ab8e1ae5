"""Closed-form bound states of a charge in a plane wave in an underdense plasma.

The package builds the finite tridiagonal eigenproblems behind the
Ince-polynomial solutions of the spin-0 and spin-1/2 wave equations in a
medium with refractive index below one, solves and independently verifies
them, and maps the eigenvalues to quantized particle momenta.
"""

from .constants import ELECTRON_MASS, PROTON_MASS
from .errors import (InputError, OracleError, OverdenseError, StructuralError,
                     VerificationFailure)
from .families import ALL_KINDS, FamilyKind, SolutionFamily, parse_family_kind
from .modulation import (ModulationFunction, contrast, envelope_density,
                         eval_polynomial_part, harmonic_strengths)
from .operators import (TridiagonalOperator, boundary_couplings,
                        build_dirac_operator, build_extended_operator,
                        build_kg_operator, build_operator)
from .physparams import (DeBroglieMomentum, DerivedQuantities, Dispersion,
                         LaserInput, LongitudinalMomentum, PlasmaInput,
                         WaveConfig, coupling_parameter, coupling_to_mu0_ratio,
                         dispersion, electron_density_from_plasma_energy,
                         eta_to_longitudinal, field_amplitude_from_intensity,
                         intensity_parameter, quantized_transverse_momentum,
                         refractive_index, wavenumber_from)
from .spectra import (RELATIVE_GAP_THRESHOLD, SpectralDecomposition,
                      solve_spectrum, sturm_bisection_oracle, symmetrize)
from .spinalg import (GammaSet, SpinEigensystem, build_majorana_gammas,
                      spin_interaction_matrix)
from .verification import (ODE_RESIDUAL_TOL, SAMPLING_SEED, PdeResidualReport,
                           ResidualReport, VerificationReport, attach_residuals,
                           dense_oracle_crosscheck, momentum_for_mode,
                           ode_residual, pde_residual_fd, run_grid, run_point,
                           sturm_crosscheck, vacuum_null_momentum)

__version__ = "0.1.0"
