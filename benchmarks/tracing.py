"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces the functions listed in `TARGETS` with wrappers
that time each call.  A function is replaced in every loaded `incevolkov`
module that binds it (so `from .operators import build_operator` in `cli`
and `verification` is covered), except in its own module when it calls
itself recursively.  A layer's self time is its spans' durations minus the
time of the spans nested inside them.  A listed name that no longer exists
raises `LookupError`, so a renamed function never shows up as a zero layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, module, attribute, also replace inside its own module)
TARGETS = (
    ("operators.build", "operators", "build_operator", True),
    ("spectra.solve", "spectra", "solve_spectrum", True),
    ("verification.point", "verification", "run_point", True),
    ("verification.ode", "verification", "_batch_residual_maxima", True),
    ("verification.ode_recheck", "verification", "_residual_values_compensated", True),
    ("verification.dense", "verification", "dense_oracle_crosscheck", True),
    ("verification.sturm", "verification", "sturm_crosscheck", True),
    ("verification.pde", "verification", "pde_residual_fd", True),
    ("modulation.eval", "modulation", "envelope_density", True),
    ("modulation.eval", "modulation", "contrast", True),
    ("modulation.eval", "modulation", "harmonic_strengths", True),
    ("modulation.eval", "modulation", "ModulationFunction.value", True),
    ("modulation.eval", "modulation", "ModulationFunction.polynomial_part", True),
    # dumps_json recurses through its module-level name: wrap callers only
    ("serialize.dump", "serialize", "dumps_json", False),
    ("serialize.dump", "serialize", "render_csv", False),
)

# layers whose self time counts as named-layer time (the coverage share);
# cli.main and run_point are glue around them
WORK_LAYERS = ("operators.build", "spectra.solve", "verification.ode",
               "verification.ode_recheck", "verification.dense",
               "verification.sturm", "verification.pde", "modulation.eval",
               "serialize.dump")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.eigenpairs = 0
        self.serialized_chars = 0
        self._stack = []            # child time accumulated per open span
        self._undo = []

    def span(self, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            child = self._stack.pop()
            self.self_s[layer] += dur - child
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1] += dur
        if layer == "spectra.solve":
            self.eigenpairs += result.dim
        elif layer == "serialize.dump":
            self.serialized_chars += len(result)
        return result

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "incevolkov" or name.startswith("incevolkov.")]
        for layer, mod_name, attr, own_module in TARGETS:
            module = importlib.import_module(f"incevolkov.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in vars(owner):
                    raise LookupError(f"traced name incevolkov.{mod_name}.{attr} is gone")
                self._replace(owner, method, self._wrap(layer, vars(owner)[method]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise LookupError(f"traced name incevolkov.{mod_name}.{attr} is gone")
            wrapped = self._wrap(layer, original)
            for mod in package:
                if mod is module and not own_module:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapped)

    def _replace(self, holder, name, value) -> None:
        self._undo.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def uninstall(self) -> None:
        while self._undo:
            holder, name, value = self._undo.pop()
            setattr(holder, name, value)

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "eigenpairs": self.eigenpairs,
                "serialized_chars": self.serialized_chars}
