"""Run configuration: flat key-value files with dotted sections, strict keys.

Example file:

    # wave and medium
    laser.photon_energy_ev = 1.563
    laser.intensity_w_cm2 = 1e8
    plasma.energy_ev = 1.0
    family = dirac
    n = 20
    output.format = csv
    seed = 462

Command-line flags override file values.  Unknown keys are errors, never
warnings.  Exactly one of (laser + plasma inputs) or the direct override
`a` may determine the coupling parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .constants import PARTICLE_MASSES, SAMPLING_SEED
from .errors import InputError
from .families import FamilyKind, parse_family_kind
from .physparams import LaserInput, PlasmaInput, WaveConfig, coupling_parameter


def _parse_float(v: str) -> float:
    try:
        return float(v)
    except ValueError:
        raise InputError(f"expected a number, got {v!r}") from None


def _parse_int(v: str) -> int:
    try:
        return int(v, 0)
    except ValueError:
        raise InputError(f"expected an integer, got {v!r}") from None


def _parse_k_select(v: str) -> tuple:
    try:
        return tuple(int(tok) for tok in v.split(",") if tok.strip())
    except ValueError:
        raise InputError(f"k_select must be comma-separated integers, got {v!r}") from None


# config key -> (RunConfig attribute, parser)
KNOWN_KEYS = {
    "laser.photon_energy_ev": ("photon_energy_ev", _parse_float),
    "laser.intensity_w_cm2": ("intensity_w_cm2", _parse_float),
    "plasma.energy_ev": ("plasma_energy_ev", _parse_float),
    "plasma.electron_density_cm3": ("electron_density_cm3", _parse_float),
    "particle": ("particle", str),
    "family": ("family", str),
    "n": ("n", _parse_int),
    "a": ("a_override", _parse_float),
    "k_select": ("k_select", _parse_k_select),
    "output.format": ("output_format", str),
    "output.path": ("output_path", str),
    "seed": ("seed", _parse_int),
}
_KEY_OF = {attr: key for key, (attr, _) in KNOWN_KEYS.items()}


@dataclass(frozen=True)
class RunConfig:
    photon_energy_ev: Optional[float] = None
    intensity_w_cm2: Optional[float] = None
    plasma_energy_ev: Optional[float] = None
    electron_density_cm3: Optional[float] = None
    particle: str = "electron"
    family: Optional[str] = None
    n: Optional[int] = None
    a_override: Optional[float] = None
    k_select: Optional[tuple] = None
    output_format: str = "json"
    output_path: Optional[str] = None
    seed: int = SAMPLING_SEED

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{_KEY_OF[f.name]} must be finite, got {value!r}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.output_format not in ("json", "csv"):
            raise InputError(
                f"output format must be json or csv, got {self.output_format!r}")
        if self.particle not in PARTICLE_MASSES:
            valid = ", ".join(sorted(PARTICLE_MASSES))
            raise InputError(f"particle must be one of: {valid}")

    @property
    def particle_mass_kg(self) -> float:
        return PARTICLE_MASSES[self.particle]

    @property
    def has_laser_plasma(self) -> bool:
        return (self.photon_energy_ev is not None
                and self.intensity_w_cm2 is not None
                and self.plasma_energy_ev is not None)

    def wave_config(self) -> WaveConfig:
        if not self.has_laser_plasma:
            raise InputError(
                "laser.photon_energy_ev, laser.intensity_w_cm2 and "
                "plasma.energy_ev are all required here")
        laser = LaserInput(self.photon_energy_ev, self.intensity_w_cm2)
        plasma = PlasmaInput(self.plasma_energy_ev, self.electron_density_cm3)
        return WaveConfig(laser=laser, plasma=plasma,
                          particle_mass_kg=self.particle_mass_kg)

    def resolve_a(self) -> float:
        """The coupling parameter, from exactly one source."""
        if self.a_override is not None and self.has_laser_plasma:
            raise InputError(
                "both laser/plasma inputs and the override `a` are set; "
                "exactly one may determine the coupling parameter")
        if self.a_override is not None:
            if self.a_override < 0:
                raise InputError("a must be >= 0")
            return self.a_override + 0.0        # -0.0 reads and prints as 0
        wc = self.wave_config()
        return coupling_parameter(wc.laser, wc.plasma)

    def family_kind(self) -> FamilyKind:
        if self.family is None:
            raise InputError("family is required (e.g. --family dirac)")
        return parse_family_kind(self.family)

    def require_n(self) -> int:
        if self.n is None:
            raise InputError("quantum number n is required (e.g. --n 20)")
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        return self.n


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat `key = value` lines into RunConfig attribute values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{source}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KNOWN_KEYS:
            raise InputError(f"{source}:{lineno}: unknown key {key!r}")
        attr, parser = KNOWN_KEYS[key]
        if attr in values:
            raise InputError(f"{source}:{lineno}: duplicate key {key!r}")
        values[attr] = parser(val)
    return values


def load_config(path: Optional[str], overrides: dict) -> RunConfig:
    """File values (if any) merged with flag overrides; flags win."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_config_text(fh.read(), source=path)
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    valid_attrs = {f.name for f in fields(RunConfig)}
    unknown = set(values) - valid_attrs
    if unknown:
        raise InputError(f"unknown config attributes: {sorted(unknown)}")
    return RunConfig(**values)
