"""Command-line front end.

Commands:
    params    physical parameter report for a laser/plasma pair
    spectrum  eigenvalues and coefficient vectors of one family
    modes     sampled modulation functions and densities for selected modes
    figure    regenerate the plot-ready data tables (1, 2 or 3)
    verify    run the independent verification checks

Exit codes: 0 success, 1 input error, 2 verification failure (for
spectrum, modes and figures 2 and 3: the output is written in full, and
some emitted eigenpair failed its ODE residual), 3 internal/structural
error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import verification
from .config import RunConfig, _parse_k_select, load_config
from .constants import SAMPLING_SEED
from .errors import InputError, StructuralError, VerificationFailure
from .families import FamilyKind, SolutionFamily
from .modulation import (ModulationFunction, contrast, envelope_density,
                         harmonic_strengths)
from .operators import build_operator
from .physparams import eta_to_longitudinal
from .serialize import SCHEMA, dumps_json, format_number, render_csv, write_text
from .spectra import solve_spectrum

FIGURE1_A_VALUES = (14.0, 20.0)
FIGURE_DEFAULT_N = 20
FIGURE_DEFAULT_A = 14.0
FIGURE1_POINTS = 513
MODES_POINTS = 257


class _Parser(argparse.ArgumentParser):
    """argparse that raises InputError instead of exiting with code 2."""

    def error(self, message):
        raise InputError(message)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        write_text(cfg.output_path, text)
        print(f"wrote {cfg.output_path}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def cmd_params(cfg: RunConfig) -> int:
    wc = cfg.wave_config()
    d = wc.derived()
    report = {
        "schema": SCHEMA,
        "inputs": {
            "photon_energy_ev": wc.laser.photon_energy_ev,
            "intensity_w_cm2": wc.laser.intensity_w_cm2,
            "plasma_energy_ev": wc.plasma.plasma_energy_ev,
            "particle": cfg.particle,
            "particle_mass_kg": cfg.particle_mass_kg,
        },
        "derived": {
            "refractive_index_n_m": d.n_m,
            "plasma_wavenumber_k_p_per_m": d.k_p,
            "spin_eigenvalue_lambda": d.lam,
            "coupling_a": d.a,
            "intensity_parameter_mu0": d.mu0,
            "a_over_mu0": d.a / d.mu0 if d.mu0 > 0 else None,
            "kappa_per_m": d.kappa,
            "kappa_star_per_m": d.kappa_star,
            "phase_velocity_m_s": d.v_ph,
            "group_velocity_m_s": d.v_gr,
        },
        "notes": [],
    }
    nearest = round(d.a)
    if nearest > 0 and abs(d.a - nearest) <= 0.02 * nearest:
        report["notes"].append(
            f"a = {format_number(d.a)} rounds to {int(nearest)} "
            f"(within {abs(d.a - nearest) / nearest:.2%})")
    if cfg.output_format == "csv":
        rows = [(k, format_number(v)) for k, v in report["derived"].items()
                if v is not None]
        text = render_csv(
            ["quantity", "value"], rows,
            header_comments=[
                "parameter report; SI units are in the quantity names",
                "a = 4 e A0 / (hbar omega_p): dimensionless, mass-independent",
                "mu0 = e F0 / (m c omega0): dimensionless",
            ])
    else:
        text = dumps_json(report) + "\n"
    _emit(cfg, text)
    for note in report["notes"]:
        print(f"note: {note}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _solve_checked(family: SolutionFamily, a: float, seed: int):
    """(decomposition with residuals, per-eigenpair verdicts) of family at a."""
    dec = solve_spectrum(build_operator(family, a))
    return verification.attach_residuals(dec, seed=seed)


def _solved_decomposition(cfg: RunConfig):
    """(family, a, decomposition with residuals, per-eigenpair verdicts)."""
    family = SolutionFamily(cfg.family_kind(), cfg.require_n())
    a = cfg.resolve_a()
    return (family, a, *_solve_checked(family, a, cfg.seed))


def _fail_on_residuals(failures) -> None:
    """After the output is written: exit 2 if any emitted k failed its residual.

    failures holds one (decomposition, failing k labels) pair per solved family.
    """
    parts = [f"{dec.family.kind.value} n={dec.family.n} a={format_number(dec.a)}: "
             f"k = {', '.join(str(k) for k in failing)}"
             for dec, failing in failures if failing]
    if parts:
        raise VerificationFailure("ODE residual failed for " + "; ".join(parts))


def _spectrum_rows(dec):
    rows = []
    for i in range(dec.dim):
        lm = eta_to_longitudinal(float(dec.etas[i]))
        rows.append((int(dec.k_labels[i]), float(dec.etas[i]),
                     float(dec.residuals[i]), lm.classification, lm.k_dot_p))
    return rows


def cmd_spectrum(cfg: RunConfig) -> int:
    family, a, dec, passed = _solved_decomposition(cfg)
    if cfg.output_format == "csv":
        text = render_csv(
            ["k", "eta", "ode_residual", "classification", "k_dot_p_over_kp2"],
            _spectrum_rows(dec),
            header_comments=[
                f"family {family.kind.value}, n = {family.n}, q = {family.q}, "
                f"a = {format_number(a)}",
                "eta: eigenvalue of the modulation equation, "
                "eta = 4 (k.p)^2 / k_p^4",
                "k labels ascend with eta (1-based)",
                "k_dot_p_over_kp2 = sqrt(eta)/2, empty for evanescent eta < 0",
            ])
    else:
        payload = {
            "schema": SCHEMA,
            "family": family.kind.value,
            "n": family.n,
            "q": family.q,
            "a": a,
            "basis": family.basis_label,
            "px_over_kp": family.px_over_kp,
            "r": family.xi_harmonics,
            "k_labels": dec.k_labels,
            "etas": dec.etas,
            "k_dot_p_over_kp2": [eta_to_longitudinal(float(e)).k_dot_p
                                 for e in dec.etas],
            "residuals": dec.residuals,
            "min_relative_gap": dec.min_relative_gap,
            "vectors": dec.vectors.T,
        }
        text = dumps_json(payload) + "\n"
    _emit(cfg, text)
    _fail_on_residuals([(dec, [int(k) for k in dec.k_labels[~passed]])])
    return 0


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def cmd_modes(cfg: RunConfig) -> int:
    family, a, dec, passed = _solved_decomposition(cfg)
    k_list = cfg.k_select or tuple(range(1, dec.dim + 1))
    for k in k_list:
        if not 1 <= k <= dec.dim:
            raise InputError(f"k_select entry {k} outside 1..{dec.dim}")
    xi = np.linspace(-np.pi, np.pi, MODES_POINTS)
    mods = [ModulationFunction.from_decomposition(dec, k) for k in k_list]
    values = [np.atleast_1d(mod.value(xi)).astype(complex) for mod in mods]
    densities = [np.abs(val) ** 2 for val in values]
    comments = [
        f"family {family.kind.value}, n = {family.n}, a = {format_number(a)}",
        "poly: finite trigonometric sum; mod = poly * exp(-(a/4) cos xi)",
        "density = |mod|^2 (unnormalized)",
    ]
    if cfg.output_format == "csv":
        rows = []
        for k, mod, val, dens in zip(k_list, mods, values, densities):
            poly = np.atleast_1d(mod.polynomial_part(xi)).astype(complex)
            for j in range(MODES_POINTS):
                rows.append((k, float(xi[j]), float(poly[j].real), float(poly[j].imag),
                             float(val[j].real), float(val[j].imag), float(dens[j])))
        text = render_csv(
            ["k", "xi_rad", "poly_re", "poly_im", "mod_re", "mod_im", "density"],
            rows, header_comments=comments)
    else:
        payload = {
            "schema": SCHEMA,
            "family": family.kind.value,
            "n": family.n,
            "a": a,
            "k_select": list(k_list),
            "xi_rad": xi,
            "modes": [
                {"k": k, "eta": float(dec.etas[k - 1]), "density": dens}
                for k, dens in zip(k_list, densities)
            ],
        }
        text = dumps_json(payload) + "\n"
    _emit(cfg, text)
    _fail_on_residuals([(dec, [k for k in k_list if not passed[k - 1]])])
    return 0


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def _figure_spectra(cfg: RunConfig):
    """(n, a, [(label, decomposition)], failures) of the spin-1/2 / spin-0
    figure pair; failures as for `_fail_on_residuals`."""
    n = cfg.n if cfg.n is not None else FIGURE_DEFAULT_N
    if cfg.a_override is None and not cfg.has_laser_plasma:
        a = FIGURE_DEFAULT_A
    else:
        a = cfg.resolve_a()
    solved, failures = [], []
    for label, kind in (("dirac", FamilyKind.DIRAC_PLUS), ("kg", FamilyKind.KG_COS_EVEN)):
        dec, passed = _solve_checked(SolutionFamily(kind, n), a, cfg.seed)
        solved.append((label, dec))
        failures.append((dec, [int(k) for k in dec.k_labels[~passed]]))
    return n, a, solved, failures


def cmd_figure(cfg: RunConfig, which: int) -> int:
    failures = []
    if which == 1:
        xi = np.linspace(-np.pi, np.pi, FIGURE1_POINTS)
        cols = ["xi_rad"] + [f"density_a{int(a)}" for a in FIGURE1_A_VALUES]
        dens = [envelope_density(a, xi) for a in FIGURE1_A_VALUES]
        rows = [(float(xi[i]), *(float(d[i]) for d in dens))
                for i in range(len(xi))]
        comments = [
            "normalized squared envelope exp(-(a/2)(cos xi + 1)); max 1 at xi = +-pi",
            *(f"a = {a}: amplitude contrast e^(a/2) = {format_number(contrast(a)[0])}, "
              f"density contrast e^a = {format_number(contrast(a)[1])}"
              for a in FIGURE1_A_VALUES),
        ]
        text = render_csv(cols, rows, header_comments=comments)
    elif which == 2:
        n, a, solved, failures = _figure_spectra(cfg)
        rows = []
        for label, dec in solved:
            for i in range(dec.dim):
                lm = eta_to_longitudinal(float(dec.etas[i]))
                gap = (float(dec.etas[i + 1] - dec.etas[i])
                       if label == "dirac" and i + 1 < dec.dim else None)
                rows.append((label, int(dec.k_labels[i]), float(dec.etas[i]),
                             lm.k_dot_p, gap))
        dirac, kg = (dec.family.kind.value for _, dec in solved)
        text = render_csv(
            ["particle", "k", "eta", "k_dot_p_over_kp2", "gap_to_next"],
            rows,
            header_comments=[
                f"spin-1/2 ({dirac}) vs spin-0 ({kg}) "
                f"spectra, n = {n}, a = {format_number(a)}",
                "gap_to_next: adjacent eta spacing of the spin-1/2 ladder, the "
                "report-only pairing metric (alternating wide/narrow gaps mark "
                "the near-degenerate pairs in the upper half)",
            ])
    elif which == 3:
        n, a, solved, failures = _figure_spectra(cfg)
        rows = []
        for label, dec in solved:
            for k, r, strength in harmonic_strengths(dec):
                rows.append((label, k, r, strength))
        text = render_csv(
            ["particle", "k", "r", "strength"],
            rows,
            header_comments=[
                f"squared harmonic coefficients, n = {n}, a = {format_number(a)}",
                "r: harmonic of xi carried by the coefficient "
                "(negative r exist only for the spin-1/2 family)",
                "each (particle, k) slice sums to 1",
            ])
    else:
        raise InputError(f"figure must be 1, 2 or 3, got {which}")
    _emit(cfg, text)
    _fail_on_residuals(failures)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _point_payload(p) -> dict:
    return {
        "family": p.kind, "n": p.n, "a": p.a, "dim": p.dim,
        "ode": {"max_residual": p.max_ode_residual,
                "max_residual_over_scale": p.max_ode_residual_over_scale,
                "passed": p.ode_passed},
        "dense": {"discrepancy": p.dense_discrepancy, "passed": p.dense_passed},
        "sturm": {"discrepancy": p.sturm_discrepancy, "passed": p.sturm_passed},
        "pde": {"observed_order": p.pde_order, "max_residual": p.pde_residual,
                "passed": p.pde_passed},
        "min_relative_gap": p.min_relative_gap,
        "note": p.note,
        "passed": p.passed,
    }


def cmd_verify(cfg: RunConfig, run_all: bool) -> int:
    if run_all:
        a_values = ((cfg.resolve_a(),) if cfg.a_override is not None
                    else verification.DEFAULT_GRID_A_VALUES)
        report = verification.run_grid(a_values=a_values, seed=cfg.seed)
    else:
        kind = cfg.family_kind()
        n = cfg.require_n()
        a = cfg.resolve_a()
        point = verification.run_point(kind, n, a, seed=cfg.seed)
        report = verification.VerificationReport(points=(point,), seed=cfg.seed)

    payload = {
        "schema": SCHEMA,
        "seed": report.seed,
        "summary": report.summary(),
        "points": [_point_payload(p) for p in report.points],
    }
    _emit(cfg, dumps_json(payload) + "\n")
    if not report.all_passed:
        for p in report.failures():
            print(f"FAIL {p.kind} n={p.n} a={format_number(p.a)}: "
                  f"{', '.join(p.failed_checks)}", file=sys.stderr)
        raise VerificationFailure(
            f"{len(report.failures())} of {len(report.points)} grid points failed")
    print(f"verify: all {len(report.points)} grid points passed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="incevolkov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--family", help="dirac[-plus|-minus], kg-cos-even, "
                                        "kg-cos-odd, kg-sin-odd, kg-sin-even")
        p.add_argument("--n", type=int, help="quantum number n >= 1")
        p.add_argument("--a", type=float, dest="a_override",
                       help="coupling parameter override (bypasses laser/plasma)")
        p.add_argument("--photon-energy-ev", type=float)
        p.add_argument("--intensity-w-cm2", type=float)
        p.add_argument("--plasma-energy-ev", type=float)
        p.add_argument("--particle", choices=("electron", "proton"))
        p.add_argument("--k-select", help="comma-separated k labels")
        p.add_argument("--format", choices=("json", "csv"), dest="output_format")
        p.add_argument("--out", dest="output_path", help="output file path")
        p.add_argument("--seed", type=int, help=f"sampling seed (default {SAMPLING_SEED})")

    for name in ("params", "spectrum", "modes", "verify"):
        add_common(sub.add_parser(name))
    fig = sub.add_parser("figure")
    fig.add_argument("which", type=int, choices=(1, 2, 3))
    add_common(fig)
    sub.choices["verify"].add_argument("--all", action="store_true",
                                       help="run the full verification grid")
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {
        "photon_energy_ev": args.photon_energy_ev,
        "intensity_w_cm2": args.intensity_w_cm2,
        "plasma_energy_ev": args.plasma_energy_ev,
        "particle": args.particle,
        "family": args.family,
        "n": args.n,
        "a_override": args.a_override,
        "k_select": (None if args.k_select is None
                     else _parse_k_select(args.k_select)),
        "output_format": args.output_format,
        "output_path": args.output_path,
        "seed": args.seed,
    }
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "params":
            return cmd_params(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "modes":
            return cmd_modes(cfg)
        if args.command == "figure":
            return cmd_figure(cfg, args.which)
        if args.command == "verify":
            return cmd_verify(cfg, args.all)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:          # e.g. a missing config, --out naming a directory
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
