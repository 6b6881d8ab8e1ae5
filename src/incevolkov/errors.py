"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 1, verification
failures exit 2, structural problems (a wrong recurrence, a broken oracle)
exit 3.
"""


class InputError(ValueError):
    """Invalid user input or configuration."""


class OverdenseError(InputError):
    """Plasma frequency at or above the wave frequency; the wave is
    evanescent and the refractive index is not real."""


class StructuralError(RuntimeError):
    """An internal consistency check failed: non-symmetrizable operator,
    complex eigenvalues from the dense cross-check, or similar.  Indicates
    a wrong recurrence or a solver bug, never bad user input."""


class VerificationFailure(RuntimeError):
    """One or more verification checks did not meet tolerance."""
