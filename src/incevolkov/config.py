"""Run configuration: one table of run inputs, read from files and flags.

Each `RunConfig` field is one row of the run-input table: its config key,
its command-line flag, the parser of its text and its help.  A
`key = value` file line and a flag go through the same parser, and a
parse error names its source (`path:line: key:` or `--flag:`).
Integers read as Python literals (`0x14` is 20, a leading zero is
refused).  Example file:

    # wave and medium
    laser.photon_energy_ev = 1.563
    laser.intensity_w_cm2 = 1e8
    plasma.energy_ev = 1.0
    family = dirac
    n = 20
    output.format = csv

Command-line flags override file values.  Unknown keys are errors, never
warnings.  A coupling is asked for when `a` or any of the three laser and
plasma inputs is set, and then exactly one of (laser + plasma inputs) or
the direct override `a` must determine it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

from .constants import PARTICLE_MASSES
from .errors import InputError
from .physparams import LaserInput, PlasmaInput, WaveConfig, coupling_parameter

if TYPE_CHECKING:
    from .families import FamilyKind


def _int(v: str) -> int:
    return int(v, 0)                    # a Python literal: 0x14, no leading 0


def _k_select(v: str) -> tuple:
    ks = tuple(int(tok) for tok in v.split(",") if tok.strip())
    if not ks:                          # "" and "," select nothing
        raise ValueError(v)
    return ks


def _path(v: str) -> str:
    if not v:                           # "" names no file
        raise ValueError(v)
    return v


# what each parser reads, for its error message (str reads any text)
_EXPECTED = {float: "a number", _int: "an integer", _k_select: "comma-separated integers",
             _path: "a file path"}


def _input(key: str, flag: str, parse, help: str, default=None):
    """A RunConfig field as a row of the run-input table: config key, flag,
    parser of the text, help of the flag, default."""
    return field(default=default,
                 metadata={"key": key, "flag": flag, "parse": parse, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """The inputs of one run, one field per row of the run-input table."""

    photon_energy_ev: Optional[float] = _input(
        "laser.photon_energy_ev", "--photon-energy-ev", float, "laser photon energy (eV)")
    intensity_w_cm2: Optional[float] = _input(
        "laser.intensity_w_cm2", "--intensity-w-cm2", float, "laser intensity (W/cm^2)")
    plasma_energy_ev: Optional[float] = _input(
        "plasma.energy_ev", "--plasma-energy-ev", float, "plasma energy hbar omega_p (eV)")
    particle: str = _input("particle", "--particle", str,
                           "electron or proton (default electron)", "electron")
    family: Optional[str] = _input("family", "--family", str, "dirac[-plus|-minus], "
                                   "kg-cos-even, kg-cos-odd, kg-sin-odd, kg-sin-even")
    n: Optional[int] = _input("n", "--n", _int, "quantum number n >= 1")
    a_override: Optional[float] = _input(
        "a", "--a", float, "coupling parameter override (bypasses laser/plasma)")
    k_select: Optional[tuple] = _input("k_select", "--k-select", _k_select,
                                       "comma-separated k labels")
    output_format: str = _input("output.format", "--format", str,
                                "json or csv (default json)", "json")
    output_path: Optional[str] = _input("output.path", "--out", _path, "output file path")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{f.metadata['key']} must be finite, got {value!r}")
        if self.output_format not in ("json", "csv"):
            raise InputError(
                f"output.format must be json or csv, got {self.output_format!r}")
        if self.particle not in PARTICLE_MASSES:
            valid = ", ".join(sorted(PARTICLE_MASSES))
            raise InputError(f"particle must be one of: {valid}, got {self.particle!r}")

    @property
    def particle_mass_kg(self) -> float:
        return PARTICLE_MASSES[self.particle]

    @property
    def _laser_plasma_set(self) -> int:
        """How many of the three laser and plasma inputs are set."""
        return sum(v is not None for v in (
            self.photon_energy_ev, self.intensity_w_cm2, self.plasma_energy_ev))

    @property
    def coupling_given(self) -> bool:
        """Whether a coupling is asked for: `a` or any laser/plasma input is
        set.  Then `resolve_a` runs, which refuses a partial set and two sources."""
        return self.a_override is not None or self._laser_plasma_set > 0

    def wave_config(self) -> WaveConfig:
        if self._laser_plasma_set < 3:
            raise InputError(
                "laser.photon_energy_ev, laser.intensity_w_cm2 and "
                "plasma.energy_ev are all required here")
        laser = LaserInput(self.photon_energy_ev, self.intensity_w_cm2)
        plasma = PlasmaInput(self.plasma_energy_ev)
        return WaveConfig(laser=laser, plasma=plasma,
                          particle_mass_kg=self.particle_mass_kg)

    def resolve_a(self) -> float:
        """The coupling parameter, from exactly one source."""
        if self.a_override is not None and self._laser_plasma_set:
            raise InputError(
                "both laser/plasma inputs and the override `a` are set; "
                "exactly one may determine the coupling parameter")
        if self.a_override is not None:
            return self.a_override + 0.0        # -0.0 reads and prints as 0
        wc = self.wave_config()
        return coupling_parameter(wc.laser, wc.plasma)

    def family_kind(self) -> FamilyKind:
        # families loads numpy, which `params` never needs
        from .families import parse_family_kind

        if self.family is None:
            raise InputError("family is required (e.g. --family dirac)")
        return parse_family_kind(self.family)

    def require_n(self) -> int:
        if self.n is None:
            raise InputError("quantum number n is required (e.g. --n 20)")
        return self.n


# the run-input table, one row per RunConfig field
RUN_INPUTS = fields(RunConfig)
_INPUT_OF_KEY = {f.metadata["key"]: f for f in RUN_INPUTS}


def _parse(row, text: str, source: str):
    """The value of one table row from its text; an error names `source`."""
    parse = row.metadata["parse"]
    try:
        return parse(text)
    except ValueError:
        raise InputError(f"{source}: expected {_EXPECTED[parse]}, got {text!r}") from None


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
        if key not in _INPUT_OF_KEY:
            raise InputError(f"{source}:{lineno}: unknown key {key!r}")
        row = _INPUT_OF_KEY[key]
        if row.name in values:
            raise InputError(f"{source}:{lineno}: duplicate key {key!r}")
        values[row.name] = _parse(row, val, f"{source}:{lineno}: {key}")
    return values


def load_config(path: Optional[str], flags: dict) -> RunConfig:
    """File values (if any) merged with flag values; flags win.  flags maps
    RunConfig attributes to their flags' raw text (None: not given)."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: not UTF-8 text ({exc})") from None
        values = parse_config_text(text, source=path)
    for row in RUN_INPUTS:
        text = flags.get(row.name)
        if text is not None:
            values[row.name] = _parse(row, text, row.metadata["flag"])
    return RunConfig(**values)
