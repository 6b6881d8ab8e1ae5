"""Closed-form bound states of a charge in a plane wave in an underdense plasma.

The package builds the finite tridiagonal eigenproblems behind the
Ince-polynomial solutions of the spin-0 and spin-1/2 wave equations in a
medium with refractive index below one, solves and independently verifies
them, and maps the eigenvalues to quantized particle momenta.

The names below are exported lazily (PEP 562): `import incevolkov` loads
no submodule, and `incevolkov.<name>` imports the one module that defines
it on first use.
"""

import importlib

__version__ = "0.1.0"

# exported name -> defining submodule
_EXPORTS = {name: module for module, names in (
    ("constants", "ELECTRON_MASS PROTON_MASS"),
    ("errors", "InputError OverdenseError StructuralError VerificationFailure"),
    ("families", "ALL_KINDS FamilyKind SolutionFamily parse_family_kind"),
    ("modulation", "ModulationFunction contrast envelope_density "
                   "eval_polynomial_part harmonic_strengths"),
    ("operators", "build_operator"),
    ("physparams", "DeBroglieMomentum DerivedQuantities LaserInput "
                   "LongitudinalMomentum PlasmaInput WaveConfig coupling_parameter "
                   "eta_to_longitudinal field_amplitude_from_intensity "
                   "intensity_parameter refractive_index"),
    ("residual", "ODE_RESIDUAL_TOL attach_residuals"),
    ("spectra", "SpectralDecomposition solve_spectrum"),
    ("verification", "SAMPLING_SEED PdeResidualReport VerificationReport "
                     "dense_oracle_crosscheck momentum_for_mode pde_residual "
                     "pde_stencil PdeStencil run_grid run_point sturm_crosscheck"),
) for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
