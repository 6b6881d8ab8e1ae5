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
import functools
import sys
from typing import TYPE_CHECKING

# Only what `params`, `--help` and an input error need is imported here;
# each command imports its numeric modules (and with them numpy) itself.
from .config import RUN_INPUTS, RunConfig, load_config
from .errors import InputError, StructuralError, VerificationFailure
from .physparams import eta_to_longitudinal
from .serialize import SCHEMA, dumps_json, format_number, render_csv, write_text

if TYPE_CHECKING:
    from .families import SolutionFamily

FIGURE1_A_VALUES = (14.0, 20.0)
FIGURE_DEFAULT_N = 20
FIGURE_DEFAULT_A = 14.0
FIGURE1_POINTS = 513
MODES_POINTS = 257

# The flagged run inputs (RunConfig fields) that each command reads, keyed
# by the words that name it.  A command offers the flags of these rows and
# refuses any other, so no flag is ignored; a config file may set every
# key, since one file serves several commands.
_LASER_PLASMA = ("photon_energy_ev", "intensity_w_cm2", "plasma_energy_ev")
_COUPLING = (*_LASER_PLASMA, "a_override")
_OUTPUT = ("output_format", "output_path")
READS = {
    "params": (*_LASER_PLASMA, "particle", *_OUTPUT),
    "spectrum": ("family", "n", *_COUPLING, *_OUTPUT),
    "modes": ("family", "n", *_COUPLING, "k_select", *_OUTPUT),
    "figure 1": ("output_path",),
    "figure 2": ("n", *_COUPLING, "output_path"),
    "figure 3": ("n", *_COUPLING, "output_path"),
    "verify": ("family", "n", *_COUPLING, "output_path"),
    "verify --all": (*_COUPLING, "output_path"),
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises InputError instead of exiting with code 2."""

    def error(self, message):
        raise InputError(message)


def _emit(cfg: RunConfig, text: str) -> None:
    """text, ended by one newline, to the output file or to stdout, in slices.

    The newline is written on its own: appending it would copy the text.
    """
    end = "" if text.endswith("\n") else "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
            write_text(fh, text, end)
        print(f"wrote {cfg.output_path}")
    else:
        write_text(sys.stdout, text, end)


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
        text = dumps_json(report)
    _emit(cfg, text)
    for note in report["notes"]:
        print(f"note: {note}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _solve_checked(family: SolutionFamily, a: float):
    """(decomposition with residuals, per-eigenpair verdicts) of family at a."""
    from .operators import build_operator
    from .residual import attach_residuals
    from .spectra import solve_spectrum

    return attach_residuals(solve_spectrum(build_operator(family, a)))


def _solved_decomposition(cfg: RunConfig):
    """(family, a, decomposition with residuals, per-eigenpair verdicts)."""
    from .families import SolutionFamily

    family = SolutionFamily(cfg.family_kind(), cfg.require_n())
    a = cfg.resolve_a()
    return (family, a, *_solve_checked(family, a))


def _k_ranges(labels) -> str:
    """The k labels with each run of consecutive ones as first-last: 1-3, 7, 9-12."""
    runs = []
    for k in labels:
        if runs and k == runs[-1][1] + 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return ", ".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in runs)


def _fail_on_residuals(failures) -> None:
    """After the output is written: exit 2 if any emitted k failed its residual.

    failures holds one (decomposition, emitted k labels, their verdicts)
    triple per solved family.
    """
    parts = []
    for dec, labels, passed in failures:
        failing = [k for k, ok in zip(labels, passed) if not ok]
        if failing:
            parts.append(f"{dec.family.kind.value} n={dec.family.n} a={format_number(dec.a)}: "
                         f"k = {_k_ranges(failing)} ({len(failing)} of {len(labels)})")
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
        text = dumps_json(payload)
    _emit(cfg, text)
    _fail_on_residuals([(dec, dec.k_labels.tolist(), passed.tolist())])
    return 0


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def cmd_modes(cfg: RunConfig) -> int:
    import numpy as np

    from .modulation import ModulationFunction

    family, a, dec, passed = _solved_decomposition(cfg)
    k_list = cfg.k_select or tuple(range(1, dec.dim + 1))
    for k in k_list:
        if not 1 <= k <= dec.dim:
            raise InputError(f"k_select entry {k} outside 1..{dec.dim}")
    xi = np.linspace(-np.pi, np.pi, MODES_POINTS)
    mods = [ModulationFunction.from_decomposition(dec, k) for k in k_list]
    with np.errstate(over="ignore", invalid="ignore"):
        values = [np.atleast_1d(mod.value(xi)).astype(complex) for mod in mods]
        densities = [np.abs(val) ** 2 for val in values]
    # a mode whose coefficients are not finite fails its ODE residual (exit 2)
    if any(np.isfinite(mod.coefficients).all() and not np.isfinite(dens).all()
           for mod, dens in zip(mods, densities)):
        raise InputError(f"a = {format_number(a)} is past the range limit of modes: |mod|^2 "
                         "leaves double range (e^(a/2) alone does from a = 1419.6)")
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
        text = dumps_json(payload)
    _emit(cfg, text)
    _fail_on_residuals([(dec, k_list, [passed[k - 1] for k in k_list])])
    return 0


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def _figure_spectra(cfg: RunConfig):
    """(n, a, [(label, decomposition)], failures) of the spin-1/2 / spin-0
    figure pair; failures as for `_fail_on_residuals`."""
    from .families import FamilyKind, SolutionFamily

    n = cfg.n if cfg.n is not None else FIGURE_DEFAULT_N
    a = cfg.resolve_a() if cfg.coupling_given else FIGURE_DEFAULT_A
    solved, failures = [], []
    for label, kind in (("dirac", FamilyKind.DIRAC_PLUS), ("kg", FamilyKind.KG_COS_EVEN)):
        dec, passed = _solve_checked(SolutionFamily(kind, n), a)
        solved.append((label, dec))
        failures.append((dec, dec.k_labels.tolist(), passed.tolist()))
    return n, a, solved, failures


def cmd_figure(cfg: RunConfig, which: int) -> int:
    failures = []
    if which == 1:
        import numpy as np

        from .modulation import contrast, envelope_density

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
    else:
        from .modulation import harmonic_strengths

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
    _emit(cfg, text)
    _fail_on_residuals(failures)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _point_payload(p) -> dict:
    """A point's JSON object: its check objects sit in `verification.CHECKS` order."""
    return {"family": p.kind, "n": p.n, "a": p.a, "dim": p.dim, **p.checks,
            "min_relative_gap": p.min_relative_gap, "note": p.note, "passed": p.passed}


def cmd_verify(cfg: RunConfig, run_all: bool) -> int:
    from . import verification

    if run_all:
        a_values = ((cfg.resolve_a(),) if cfg.coupling_given
                    else verification.DEFAULT_GRID_A_VALUES)
        report = verification.run_grid(a_values=a_values)
    else:
        kind = cfg.family_kind()
        n = cfg.require_n()
        a = cfg.resolve_a()
        report = verification.VerificationReport(points=(verification.run_point(kind, n, a),))

    payload = {
        "schema": SCHEMA,
        "summary": report.summary(),
        "points": [_point_payload(p) for p in report.points],
    }
    _emit(cfg, dumps_json(payload))
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

@functools.cache     # parse_args fills a fresh namespace: a reused parser keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="incevolkov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("params", "spectrum", "modes", "verify", "figure"):
        p = sub.add_parser(name)
        if name == "figure":
            p.add_argument("which", type=int, choices=(1, 2, 3))
        p.add_argument("--config", help="key = value config file")
        read = {row for key, rows in READS.items() if key.split()[0] == name
                for row in rows}
        for row in RUN_INPUTS:          # a flag keeps its text: load_config parses it
            if row.name in read:
                p.add_argument(row.metadata["flag"], dest=row.name,
                               help=row.metadata["help"])
    sub.choices["verify"].add_argument("--all", action="store_true",
                                       help="run the full verification grid")
    return parser


def _refuse_unread_flags(args) -> None:
    """Refuse a flag that the parsed command offers but does not read."""
    command = args.command
    if command == "figure":
        command += f" {args.which}"
    elif command == "verify" and args.all:
        command += " --all"
    unread = [row.metadata["flag"] for row in RUN_INPUTS
              if getattr(args, row.name, None) is not None
              and row.name not in READS[command]]
    if unread:
        raise InputError(f"{command} does not read {', '.join(unread)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_unread_flags(args)
        cfg = load_config(args.config, vars(args))
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
    except (InputError, OSError) as exc:    # OSError: e.g. a missing config file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
