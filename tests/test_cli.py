"""Command-line interface: commands, exit codes, exports, determinism."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import incevolkov
import incevolkov.forking as forking
import incevolkov.operators as operators
import incevolkov.verification as verification
from incevolkov.cli import _emit, _k_ranges, build_parser, main
from incevolkov.config import RunConfig
from incevolkov.families import ALL_KINDS
from reference import hand_built

FIG2_ARGS = ["--photon-energy-ev", "1.563", "--intensity-w-cm2", "1e8",
             "--plasma-energy-ev", "1.0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """One parser serves every command of a process and carries nothing over."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_flag_of_one_parse_unset_in_the_next(self):
        first = build_parser().parse_args(["verify", "--all"])
        second = build_parser().parse_args(["verify", "--family", "dirac", "--n", "3",
                                            "--a", "1"])
        assert first.all is True
        assert second.all is False
        assert second.n == "3"

    def test_value_of_one_command_unset_in_the_next(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "3", "--family", "dirac", "--a", "1")
        assert code == 0
        assert json.loads(out)["n"] == 3
        code, out, err = run(capsys, "spectrum", "--family", "dirac", "--a", "1")
        assert (code, out) == (1, "")
        assert err == "error: quantum number n is required (e.g. --n 20)\n"


class TestParams:
    def test_reference_report(self, capsys):
        code, out, err = run(capsys, "params", *FIG2_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "ince-volkov/1"
        a = payload["derived"]["coupling_a"]
        assert 13.5 <= a <= 14.3
        assert any("rounds to 14" in note for note in payload["notes"])

    def test_zero_intensity(self, capsys):
        code, out, _ = run(capsys, "params", "--photon-energy-ev", "1.563",
                           "--intensity-w-cm2", "0", "--plasma-energy-ev", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["derived"]["coupling_a"] == 0.0
        assert payload["derived"]["intensity_parameter_mu0"] == 0.0

    def test_overdense_exit_code(self, capsys):
        code, _, err = run(capsys, "params", "--photon-energy-ev", "1.0",
                           "--intensity-w-cm2", "1e8", "--plasma-energy-ev", "2.0")
        assert code == 1
        assert "underdense" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "params", *FIG2_ARGS, "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "quantity,value"


class TestSpectrum:
    def test_dirac_reference_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "dirac",
                           "--n", "20", "--a", "14")
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 39
        assert len(payload["etas"]) == 40
        assert len(payload["vectors"]) == 40
        scale = 1 + np.abs(np.array(payload["etas"])) + 14.0 * 40
        assert np.all(np.array(payload["residuals"]) < 1e-9 * scale)

    def test_kg_reference_csv(self, capsys, tmp_path):
        out_file = tmp_path / "kg.csv"
        code, _, _ = run(capsys, "spectrum", "--family", "kg-cos-even",
                         "--n", "20", "--a", "14", "--format", "csv",
                         "--out", str(out_file))
        assert code == 0
        rows = [l for l in out_file.read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[0].startswith("k,eta,ode_residual,classification,")
        assert len(rows) - 1 == 21

    def test_free_limit(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "dirac",
                           "--n", "1", "--a", "0")
        payload = json.loads(out)
        assert payload["etas"] == [0.0, 4.0]

    def test_evanescent_column(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "dirac",
                           "--n", "2", "--a", "14")
        payload = json.loads(out)
        etas = np.array(payload["etas"])
        kdp = payload["k_dot_p_over_kp2"]
        for e, k in zip(etas, kdp):
            if e < 0:
                assert k is None
            else:
                assert k == pytest.approx(0.5 * np.sqrt(e))

    def test_ambiguous_coupling_rejected(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "dirac", "--n", "2",
                           "--a", "14", *FIG2_ARGS)
        assert code == 1
        assert "exactly one" in err

    def test_pipeline_coupling(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "dirac", "--n", "2",
                           *FIG2_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == pytest.approx(13.8617405, rel=1e-6)

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "pauli", "--n", "2",
                           "--a", "1")
        assert code == 1


class TestModes:
    def test_selected_modes_csv(self, capsys):
        code, out, _ = run(capsys, "modes", "--family", "kg-cos-even",
                           "--n", "2", "--a", "5", "--k-select", "1,3",
                           "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        ks = {r.split(",")[0] for r in rows[1:]}
        assert ks == {"1", "3"}

    def test_out_of_range_k(self, capsys):
        code, _, err = run(capsys, "modes", "--family", "kg-cos-even",
                           "--n", "2", "--a", "5", "--k-select", "9")
        assert code == 1

    def test_malformed_k_select(self, capsys):
        code, out, err = run(capsys, "modes", "--family", "kg-cos-even",
                             "--n", "2", "--a", "5", "--k-select", "1,x")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_k_select_token_as_in_config(self, capsys):
        code, out, _ = run(capsys, "modes", "--family", "kg-cos-even",
                           "--n", "2", "--a", "5", "--k-select", "1,,2")
        assert code == 0
        assert json.loads(out)["k_select"] == [1, 2]

    @pytest.mark.parametrize("text", [",", ", ,"])
    def test_k_select_without_a_label_refused(self, capsys, tmp_path, text):
        # a selection with no label is refused, never read as every mode
        code, out, err = run(capsys, "modes", "--family", "dirac", "--n", "2", "--a", "1",
                             "--k-select", text)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: --k-select: expected comma-separated integers, got {text!r}"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family = dirac\nn = 2\na = 1\nk_select = {text}\n")
        code, out, err = run(capsys, "modes", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {cfg}:4: k_select: expected comma-separated integers, got {text!r}"]

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "modes", "--family", "kg-cos-even",
                           "--n", "2", "--a", "5", "--k-select", "2")
        payload = json.loads(out)
        assert payload["schema"] == "ince-volkov/1"
        assert len(payload["xi_rad"]) == len(payload["modes"][0]["density"])


class TestModesPastDoubleRange:
    """From a ~ 1420, |mod|^2 = |poly|^2 e^(-(a/2) cos xi) leaves double range."""

    @pytest.mark.filterwarnings("error")        # a numpy warning fails the test
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("family,a,k_select", [
        ("kg-cos-even", "1500", "1"),       # |mod|^2 overflows, mod does not
        ("dirac", "3000", None),            # the envelope itself overflows
    ])
    def test_refused_before_writing(self, capsys, tmp_path, fmt, family, a, k_select):
        out_file = tmp_path / f"modes.{fmt}"
        code, out, err = run(capsys, "modes", "--family", family, "--n", "2",
                             "--a", a, *(["--k-select", k_select] if k_select else []),
                             "--format", fmt, "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: a = {a} is past the range limit of modes: |mod|^2 leaves "
            "double range (e^(a/2) alone does from a = 1419.6)"]
        assert not out_file.exists()

    def test_below_the_limit_written(self, capsys):
        code, out, _ = run(capsys, "modes", "--family", "kg-cos-even", "--n", "2",
                           "--a", "1400", "--k-select", "1")
        assert code == 0
        assert np.isfinite(json.loads(out)["modes"][0]["density"]).all()


class TestFigures:
    def test_figure1_envelope(self, capsys):
        code, out, _ = run(capsys, "figure", "1")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#")]
        header, data = rows[0], rows[1:]
        assert header == ["xi_rad", "density_a14", "density_a20"]
        xi = np.array([float(r[0]) for r in data])
        d14 = np.array([float(r[1]) for r in data])
        i0 = np.argmin(np.abs(xi))
        assert d14[i0] == pytest.approx(np.exp(-14.0), rel=1e-10)
        assert d14[0] == 1.0 and d14[-1] == 1.0

    def test_figure2_row_counts(self, capsys):
        code, out, _ = run(capsys, "figure", "2")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        dirac = [r for r in rows[1:] if r.startswith("dirac,")]
        kg = [r for r in rows[1:] if r.startswith("kg,")]
        assert len(dirac) == 40 and len(kg) == 21

    def test_figure3_free_limit_spikes(self, capsys):
        code, out, _ = run(capsys, "figure", "3", "--n", "3", "--a", "0")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#")][1:]
        for particle, dim in (("dirac", 6), ("kg", 4)):
            for k in range(1, dim + 1):
                strengths = sorted(float(r[3]) for r in rows
                                   if r[0] == particle and int(r[1]) == k)
                assert strengths[-1] == pytest.approx(1.0, abs=1e-12)
                assert sum(strengths[:-1]) == pytest.approx(0.0, abs=1e-12)

    def test_figure3_slices_normalized(self, capsys):
        code, out, _ = run(capsys, "figure", "3")
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#")][1:]
        totals = {}
        for particle, k, _, s in rows:
            totals[(particle, k)] = totals.get((particle, k), 0.0) + float(s)
        assert len(totals) == 40 + 21
        assert all(abs(t - 1.0) < 1e-12 for t in totals.values())

    @pytest.mark.parametrize("which", ["2", "3"])
    def test_shipped_config_passes(self, capsys, tmp_path, which):
        config = Path(__file__).resolve().parents[1] / "configs" / f"figure{which}.cfg"
        out_path = tmp_path / f"figure{which}.csv"
        code, out, err = run(capsys, "figure", which, "--config", str(config),
                             "--out", str(out_path))
        assert code == 0
        assert err == ""
        assert out == f"wrote {out_path}\n"

    @pytest.mark.parametrize("which,rows", [("2", 200 + 101), ("3", 200 * 200 + 101 * 101)])
    def test_failing_residuals_exit_two(self, capsys, which, rows):
        # the table is written in full, then one line names every failing k
        code, out, err = run(capsys, "figure", which, "--n", "100", "--a", "14")
        assert code == 2
        data = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data) == 1 + rows
        assert err.splitlines() == [
            "verification failure: ODE residual failed for dirac-plus n=100 a=14: "
            "k = 153-167, 185-189, 191 (21 of 200); kg-cos-even n=100 a=14: "
            "k = 77-84, 93-95 (11 of 101)"]

    def test_invalid_figure(self, capsys):
        code, _, _ = run(capsys, "figure", "4")
        assert code == 1


class TestVerify:
    def test_single_point(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "dirac",
                             "--n", "20", "--a", "14")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["all_passed"] is True
        assert payload["points"][0]["pde"]["passed"] is True

    @pytest.mark.parametrize("argv", [["--family", "dirac", "--n", "3", "--a", "14"],
                                      ["--all", "--a", "1"]])
    def test_payload_holds_no_seed(self, capsys, argv):
        # the spacetime points come from one constant seed, which no run sets
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert list(json.loads(out)) == ["schema", "summary", "points"]

    def test_free_grid_with_notes(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--a", "0")
        # --all runs the grid at the overridden coupling
        assert code == 0
        payload = json.loads(out)
        assert all("squared basis frequencies" in p["note"]
                   for p in payload["points"])

    def test_corrupted_eigenvalue_detected(self, capsys, monkeypatch):
        original = verification.run_point

        def corrupted(kind, n, a, **kwargs):
            kwargs["eta_shift"] = 0.01
            return original(kind, n, a, **kwargs)

        monkeypatch.setattr(verification, "run_point", corrupted)
        code, _, err = run(capsys, "verify", "--family", "dirac",
                           "--n", "3", "--a", "5")
        assert code == 2
        assert "FAIL dirac-plus n=3 a=5: ode, sturm, pde\n" in err

    def test_point_objects_summary_and_fail_lines_follow_the_checks_table(self, capsys):
        # at a = 1e150 points fail: e^(a/4) overflows in the spacetime check
        code, out, err = run(capsys, "verify", "--all", "--a", "1e150")
        assert code == 2
        payload = json.loads(out)
        names = [name for name, _, _ in verification.CHECKS]
        assert names == ["ode", "sturm", "pde"]
        failed = []
        for point in payload["points"]:
            assert list(point) == ["family", "n", "a", "dim", *names,
                                   "min_relative_gap", "note", "passed"]
            assert all(list(point[name])[-1] == "passed" for name in names)
            words = [name for name in names if not point[name]["passed"]]
            assert point["passed"] == (not words)
            if words:
                failed.append(f"FAIL {point['family']} n={point['n']} "
                              f"a=9.9999999999999998e+149: {', '.join(words)}")
        assert failed and err.splitlines()[:-1] == failed
        summary = payload["summary"]
        assert list(summary) == ["points", "all_passed", *(
            key for _, _, key in verification.CHECKS if key is not None)]
        for name, field, key in verification.CHECKS:
            if key is not None:
                assert summary[key] == max(p[name][field] for p in payload["points"])

    def test_huge_coupling_fails_not_structural(self, capsys):
        # the Sturm certificate's radii and the oracle agreement gate scale
        # with the eigenvalues near 1e150, so the oracles pass; e^(a/4)
        # overflows, so the spacetime check fails the point
        code, out, err = run(capsys, "verify", "--family", "dirac",
                             "--n", "3", "--a", "1e150")
        assert code == 2
        point = json.loads(out)["points"][0]
        assert point["sturm"]["passed"]
        assert point["sturm"]["discrepancy"] < 1e-14 * 1e150
        assert err.splitlines() == [
            "FAIL dirac-plus n=3 a=9.9999999999999998e+149: pde",
            "verification failure: 1 of 1 grid points failed"]

    def test_zero_pivot_coupling_fails_only_pde(self, capsys):
        # a Sturm count at a shift that makes a pivot exactly 0 once missed
        # an eigenvalue here (sturm discrepancy 4e20); the oracles pass, and
        # e^(a/4) overflows in the spacetime check
        code, _, err = run(capsys, "verify", "--family", "kg-cos-even",
                           "--n", "2", "--a", "1e20")
        assert code == 2
        assert err.splitlines() == [
            "FAIL kg-cos-even n=2 a=1e+20: pde",
            "verification failure: 1 of 1 grid points failed"]

    def test_rounding_in_a_dense_solve_is_not_structural(self, capsys):
        # a general dense solver once put imaginary parts of 1.383e-10 on
        # this real spectrum and the point exited 3; the Sturm certificate
        # proves its eigenvalues
        code, out, err = run(capsys, "verify", "--family", "dirac",
                             "--n", "31", "--a", "14")
        assert code == 0
        assert json.loads(out)["points"][0]["passed"]
        assert err.splitlines() == ["verify: all 1 grid points passed"]

    @pytest.mark.parametrize("grid", [["--family", "dirac", "--n", "2"], ["--all"]])
    def test_two_coupling_sources_rejected(self, capsys, grid):
        # --all takes its coupling from the same single source as one point
        code, out, err = run(capsys, "verify", *grid, "--a", "5", *FIG2_ARGS)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: both laser/plasma inputs and the override `a` are set; "
            "exactly one may determine the coupling parameter"]

    def test_structural_error_exit_code(self, capsys, monkeypatch):
        from incevolkov.errors import StructuralError

        def broken(*args, **kwargs):
            raise StructuralError("synthetic")

        monkeypatch.setattr(verification, "run_point", broken)
        code, _, err = run(capsys, "verify", "--family", "dirac",
                           "--n", "3", "--a", "5")
        assert code == 3


class TestResidualExitCode:
    """spectrum and modes write their output in full, then exit 2 when an
    emitted eigenpair fails its ODE residual (here the high dirac modes at
    n = 40, a = 14, k = 78 and 80)."""

    def test_grid_point_exits_zero(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "dirac",
                             "--n", "25", "--a", "20")
        assert code == 0
        assert err == ""

    def test_spectrum_failing_rows(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "dirac",
                             "--n", "40", "--a", "14")
        assert code == 2
        assert len(json.loads(out)["etas"]) == 80
        assert err.splitlines() == [
            "verification failure: ODE residual failed for dirac-plus "
            "n=40 a=14: k = 78, 80 (2 of 80)"]

    def test_spectrum_csv_to_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, err = run(capsys, "spectrum", "--family", "dirac", "--n", "40",
                             "--a", "14", "--format", "csv", "--out", str(path))
        assert code == 2
        rows = [l for l in path.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 81
        assert "k = 78, 80 (2 of 80)" in err

    def test_modes_only_selected_k_count(self, capsys):
        code, out, err = run(capsys, "modes", "--family", "dirac", "--n", "40",
                             "--a", "14", "--k-select", "1,2,79")
        assert code == 0
        assert [m["k"] for m in json.loads(out)["modes"]] == [1, 2, 79]

    def test_modes_failing_selected_k(self, capsys):
        code, out, err = run(capsys, "modes", "--family", "dirac", "--n", "40",
                             "--a", "14", "--k-select", "1,80")
        assert code == 2
        assert [m["k"] for m in json.loads(out)["modes"]] == [1, 80]
        assert err.splitlines() == [
            "verification failure: ODE residual failed for dirac-plus "
            "n=40 a=14: k = 80 (1 of 2)"]

    def test_failing_labels_as_ranges(self, capsys):
        # a run of consecutive failing k prints as first-last, with the count
        code, _, err = run(capsys, "spectrum", "--family", "kg-cos-even",
                           "--n", "200", "--a", "50")
        assert code == 2
        assert err.splitlines() == [
            "verification failure: ODE residual failed for kg-cos-even "
            "n=200 a=50: k = 102-139, 142-201 (98 of 201)"]

    @pytest.mark.parametrize("labels,text", [
        ([1, 2, 3, 7, 9, 10, 11, 12], "1-3, 7, 9-12"),
        ([5], "5"),
        ([4, 5, 1, 2, 2], "4-5, 1-2, 2"),       # --k-select order is kept
    ])
    def test_k_ranges(self, labels, text):
        assert _k_ranges(labels) == text


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv,key", [
        (["spectrum", "--family", "dirac", "--n", "3", "--a", "nan"], "a"),
        (["spectrum", "--family", "dirac", "--n", "3", "--a", "inf"], "a"),
        (["verify", "--family", "dirac", "--n", "3", "--a=-inf"], "a"),
        (["params", "--photon-energy-ev", "1.563", "--intensity-w-cm2", "1e8",
          "--plasma-energy-ev", "nan"], "plasma.energy_ev"),
        (["params", "--photon-energy-ev", "1.563", "--intensity-w-cm2", "inf",
          "--plasma-energy-ev", "1.0"], "laser.intensity_w_cm2"),
    ])
    def test_rejected_with_one_line(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} must be finite")

    def test_config_file_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = dirac\nn = 3\na = nan\n")
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 1
        assert err == "error: a must be finite, got nan\n"

    def test_overflowing_coupling(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "dirac",
                             "--n", "3", "--a", "1e300")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: dirac-plus n=3: bond 0: super*sub overflows at a = 1e+300")

    def test_underflowing_coupling(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "kg-cos-even",
                             "--n", "2", "--a", "1e-200")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(
            "error: kg-cos-even n=2: bond 0: super*sub underflows at a = 1e-200")

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_fold_entry_outlives_the_super_entry(self, capsys, command):
        # at a = 5e-324, 0.5 a rounds to 0 while the fold entry q a stays
        # subnormal: an underflow, not a wrong recurrence
        code, out, err = run(capsys, command, "--family", "kg-cos-even",
                             "--n", "3", "--a", "5e-324")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: kg-cos-even n=3: bond 0: super*sub underflows at a = 5e-324; "
            "the coupling is too small for double precision"]

    def test_grid_refusal_names_its_point(self, capsys):
        # the first refused group in group order, named by family and n
        code, out, err = run(capsys, "verify", "--all", "--a", "5e-324")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: kg-cos-even n=1: bond 0: super*sub underflows at a = 5e-324; "
            "the coupling is too small for double precision"]

    @pytest.mark.parametrize("a", ["5e-324", "1e-323", "1e-320", "1e-300", "1e-170"])
    def test_tiny_couplings_are_never_structural(self, capsys, a):
        for kind in ALL_KINDS:
            for command in ("spectrum", "verify"):
                code, _, err = run(capsys, command, "--family", kind.value,
                                   "--n", "3", "--a", a)
                assert code in (0, 1), (kind, command, err)
                assert code == 0 or len(err.splitlines()) == 1

    def test_sign_flip_still_structural(self, capsys, monkeypatch):
        def sign_flipped(family, a):
            return hand_built(family=family, a=a, diag=np.zeros(2),
                              super_=np.array([1e-200]),
                              sub=np.array([-1e-200]))

        monkeypatch.setattr(operators, "build_operator", sign_flipped)
        code, out, err = run(capsys, "spectrum", "--family", "dirac",
                             "--n", "1", "--a", "1")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("structural error: dirac-plus n=1: bond 0: super*sub = -0.0 <= 0")

    def test_sign_flip_at_subnormal_scale_still_structural(self, capsys, monkeypatch):
        # a zero side keeps the sign of what underflowed to it
        def sign_flipped(family, a):
            return hand_built(family=family, a=a, diag=np.zeros(2),
                              super_=np.array([-0.0]),
                              sub=np.array([5e-324]))

        monkeypatch.setattr(operators, "build_operator", sign_flipped)
        code, out, err = run(capsys, "spectrum", "--family", "dirac",
                             "--n", "1", "--a", "1")
        assert (code, out) == (3, "")
        assert err.startswith("structural error: dirac-plus n=1: bond 0: super*sub = -0.0 <= 0")

    @pytest.mark.parametrize("intensity,plasma,message", [
        ("1e308", "1", "error: coupling a overflows double range at intensity 1e+308"),
        ("1e8", "1e-308", "error: plasma energy 1e-308 eV gives a plasma "
                          "wavenumber k_p = 0.0 1/m"),
    ])
    def test_derived_quantity_out_of_range(self, capsys, intensity, plasma, message):
        code, out, err = run(capsys, "params", "--photon-energy-ev", "1.563",
                             "--intensity-w-cm2", intensity,
                             "--plasma-energy-ev", plasma)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(message)


_BOND_OVERFLOW = ("error: {} n={}: bond 0: super*sub overflows at a = 1e+308; "
                  "the coupling is too large for double precision")
_ODE_RANGE = ("error: {} n = 1: a = 1e+308 is past the range limit of the ODE residual "
              "check: its terms leave double range")


@pytest.mark.parametrize("argv,exit_code,stderr", [
    (["spectrum", "--family", "dirac", "--n", "2", "--a", "1e308"], 1,
     [_BOND_OVERFLOW.format("dirac-plus", 2)]),
    (["verify", "--all", "--a", "1e308"], 1, [_BOND_OVERFLOW.format("dirac-minus", 1)]),
    (["verify", "--family", "kg-sin-odd", "--n", "1", "--a", "1e308"], 1,
     [_ODE_RANGE.format("kg-sin-odd")]),
    (["verify", "--family", "kg-cos-odd", "--n", "1", "--a", "1e308"], 1,
     [_ODE_RANGE.format("kg-cos-odd")]),
    (["spectrum", "--family", "kg-sin-odd", "--n", "1", "--a", "1e308"], 1,
     [_ODE_RANGE.format("kg-sin-odd")]),
    (["spectrum", "--family", "kg-sin-even", "--n", "1", "--a", "1e308"], 0, []),
    (["verify", "--family", "kg-sin-even", "--n", "1", "--a", "1e308"], 2,
     ["FAIL kg-sin-even n=1 a=1e+308: pde", "verification failure: 1 of 1 grid points failed"]),
], ids=["spectrum", "verify-all", "verify-kg-sin-odd", "verify-kg-cos-odd",
        "spectrum-kg-sin-odd", "spectrum-kg-sin-even", "verify-kg-sin-even"])
def test_overflow_near_the_largest_double_prints_no_warning(argv, exit_code, stderr):
    # the operator entries and the ODE residual overflow near a = 1e308: the
    # bond check or the ODE residual refuses the coupling (the dim-1
    # eigenpairs are exact), and numpy's warnings stay silent.  kg-sin-even
    # n = 1 keeps every residual term in range (w + h = 0 exactly), so its
    # exact eigenpair passes, and only the spacetime check, past e^(a/4)'s
    # range, fails
    # (a fresh process, as pytest records warnings apart from stderr)
    src = str(Path(incevolkov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "incevolkov.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == exit_code
    assert proc.stderr.splitlines() == stderr


@pytest.mark.skipif(forking.openblas_threads() is None,
                    reason="numpy does not run its bundled OpenBLAS here, so nothing forks")
@pytest.mark.parametrize("argv", [
    ["verify", "--all"],
    ["spectrum", "--family", "dirac-plus", "--n", "200", "--a", "14"]])
def test_a_failed_fork_runs_in_one_process(capsys, monkeypatch, argv):
    # a round's groups and a large array's rows: with no process to fork,
    # the bytes and exit code of a run that never forks
    monkeypatch.setattr(forking, "may_fork", lambda: False)
    alone = run(capsys, *argv)
    monkeypatch.undo()
    forks = []

    def no_process():
        forks.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(forking.os, "fork", no_process)
    assert run(capsys, *argv) == alone
    assert forks


def test_same_seed_same_stdout_under_any_hash_seed():
    # the spacetime points come from random.Random(SAMPLING_SEED), which
    # string hashing does not touch
    src = str(Path(incevolkov.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "incevolkov.cli", "verify",
                               "--family", "dirac", "--n", "20", "--a", "14"],
                              env={**os.environ, "PYTHONPATH": src,
                                   "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] != ""


class TestInputLimits:
    def test_out_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "spectrum", "--family", "dirac", "--n", "3",
                             "--a", "1", "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_dimension_past_range_limit(self, capsys):
        from incevolkov.spectra import MAX_SOLVE_DIM

        # kg-cos-even has dim n + 1: the first dimension above the cap
        code, out, err = run(capsys, "spectrum", "--family", "kg-cos-even",
                             "--n", str(MAX_SOLVE_DIM), "--a", "1")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "range limit" in err

    @pytest.mark.parametrize("command,family", [("spectrum", "dirac"),
                                                ("verify", "kg-cos-even")])
    def test_huge_n_refused_before_allocating(self, capsys, command, family):
        # the basis window alone would take terabytes
        code, out, err = run(capsys, command, "--family", family,
                             "--n", "99999999999", "--a", "1")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: n = 99999999999 gives dimension ")
        assert "range limit" in err

    def test_config_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfen = 3\n")
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {cfg}: not UTF-8 text")

    @pytest.mark.parametrize("argv,message", [
        (["--n", "010"], "error: --n: expected an integer, got '010'"),
        (["--a", "1e"], "error: --a: expected a number, got '1e'"),
        (["--n", "twenty"], "error: --n: expected an integer, got 'twenty'"),
    ])
    def test_flag_parse_error_names_the_flag(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--family", "dirac", "--a", "1",
                             "--n", "3", *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [message]

    def test_file_parse_error_names_the_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = dirac\nn = twenty\n")
        code, out, err = run(capsys, "spectrum", "--config", str(cfg), "--a", "1")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {cfg}:2: n: expected an integer, got 'twenty'"]

    def test_hex_flags_as_in_config(self, capsys):
        outputs = [run(capsys, "verify", "--family", "kg-cos-odd", "--a", "1", "--n", n)
                   for n in ("3", "0x3")]
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_verify_past_the_old_dense_limit_passes(self, capsys):
        # dim 202: past the dim-200 range limit of the dense check, which
        # no longer judges the point
        code, out, err = run(capsys, "verify", "--family", "dirac", "--n", "101",
                             "--a", "1")
        assert code == 0
        assert json.loads(out)["points"][0]["dim"] == 202
        assert err.splitlines() == ["verify: all 1 grid points passed"]


def _modules_after(code: str) -> list:
    """incevolkov, numpy and numpy.random modules loaded by `code` in a fresh interpreter."""
    src = str(Path(incevolkov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys\n{code}\n"
         "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' "
         "or m.startswith(('incevolkov', 'numpy.random')))))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _as_script(argv: list, exit_code: int) -> str:
    """Code that runs `python -m incevolkov.cli ARGV` and checks its exit code."""
    return ("import contextlib, io, runpy\n"
            f"sys.argv = ['incevolkov', *{argv!r}]\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('incevolkov.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            f"        assert exc.code == {exit_code!r}, exc.code\n")


def test_package_import_loads_no_submodule():
    assert _modules_after("import incevolkov") == ["incevolkov"]


REFERENCE_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "reference.cfg")


@pytest.mark.parametrize("code", [
    "import incevolkov.cli",
    _as_script(["--help"], 0),
    _as_script(["params", "--config", REFERENCE_CFG], 0),
    _as_script([], 1),                   # argparse error: no command
], ids=["import", "help", "params", "no-command"])
def test_cli_without_numeric_work_loads_no_numpy(code):
    loaded = _modules_after(code)
    assert "numpy" not in loaded
    assert not {"incevolkov.families", "incevolkov.spectra",
                "incevolkov.residual", "incevolkov.verification"} & set(loaded)


@pytest.mark.parametrize("out", [None, os.devnull], ids=["stdout", "out-file"])
def test_emit_writes_in_slices(monkeypatch, out):
    # a text stream encodes what one write gives it in one piece: written
    # whole, an 8 MiB text would hold a second 8 MiB copy beside it
    text = "0123456789abcdef" * (1 << 19)
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            _emit(RunConfig(output_path=out), text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < len(text) / 8


# every name the package exports
EXPORTS = """
    ELECTRON_MASS PROTON_MASS InputError OverdenseError
    StructuralError VerificationFailure ALL_KINDS FamilyKind SolutionFamily
    parse_family_kind ModulationFunction contrast envelope_density
    eval_polynomial_part harmonic_strengths
    build_operator DeBroglieMomentum DerivedQuantities LaserInput
    LongitudinalMomentum PlasmaInput WaveConfig coupling_parameter
    eta_to_longitudinal field_amplitude_from_intensity intensity_parameter
    refractive_index SpectralDecomposition
    solve_spectrum ODE_RESIDUAL_TOL
    SAMPLING_SEED PdeResidualReport PdeStencil VerificationReport
    attach_residuals dense_oracle_crosscheck momentum_for_mode
    pde_residual pde_stencil run_grid run_point sturm_crosscheck
""".split()


def test_package_exports_resolve():
    from incevolkov import verification

    assert set(EXPORTS) == set(incevolkov.__all__)
    for name in EXPORTS:
        assert getattr(incevolkov, name) is not None
    assert incevolkov.run_grid is verification.run_grid
    assert "solve_spectrum" in dir(incevolkov)
    with pytest.raises(AttributeError):
        incevolkov.no_such_name


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "dirac", "--n", "3", "--a", "1"],
    ["verify", "--family", "dirac", "--n", "3", "--a", "14"],
    ["modes", "--family", "kg-cos-odd", "--n", "3", "--a", "1"],
])
def test_commands_leave_out_numpy_random_and_spinalg(argv):
    loaded = _modules_after(
        "import contextlib, io\n"
        "from incevolkov.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0")
    # spectrum and modes run the ODE residual alone, verify every check
    assert "incevolkov.residual" in loaded
    assert ("incevolkov.verification" in loaded) == (argv[0] == "verify")
    assert "incevolkov.spinalg" not in loaded
    assert not [m for m in loaded if m.startswith("numpy.random")]


def test_package_holds_only_command_code():
    # every module of the package is loaded by the commands; code that only
    # the tests reach lives under tests/
    package = Path(incevolkov.__file__).resolve().parent
    modules = {"incevolkov" if path.stem == "__init__" else f"incevolkov.{path.stem}"
               for path in package.glob("*.py")}
    commands = [["params", *FIG2_ARGS],
                ["spectrum", "--family", "dirac", "--n", "3", "--a", "1"],
                ["modes", "--family", "kg-cos-odd", "--n", "3", "--a", "1"],
                ["figure", "1"],
                ["verify", "--family", "dirac", "--n", "3", "--a", "1"]]
    loaded = _modules_after(
        "import contextlib, io\n"
        "from incevolkov.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert [main(argv) for argv in {commands!r}] == {[0] * len(commands)!r}")
    assert {m for m in loaded if m.split(".")[0] == "incevolkov"} == modules


def test_cli_import_leaves_out_scipy_special():
    src = str(Path(incevolkov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, incevolkov.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCouplingRule:
    """A coupling is asked for when `a` or any laser/plasma input is set."""

    PARTIAL = "error: laser.photon_energy_ev, laser.intensity_w_cm2 and " \
              "plasma.energy_ev are all required here"

    def test_laser_plasma_inputs_set_the_grid_coupling(self, capsys):
        code, out, err = run(capsys, "verify", "--all", *FIG2_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["points"] == 150
        assert {p["a"] for p in payload["points"]} == {13.861740521205018}
        assert err.splitlines() == ["verify: all 150 grid points passed"]

    @pytest.mark.parametrize("which", ["2", "3"])
    def test_laser_plasma_inputs_set_the_figure_coupling(self, capsys, which):
        code, out, _ = run(capsys, "figure", which, "--n", "3", *FIG2_ARGS)
        assert code == 0
        assert "a = 13.861740521205018" in out.splitlines()[0]

    @pytest.mark.parametrize("command", [["verify", "--all"], ["figure", "2"],
                                         ["figure", "3"]])
    @pytest.mark.parametrize("partial", [FIG2_ARGS[4:], FIG2_ARGS[:2], FIG2_ARGS[:4]])
    def test_partial_laser_plasma_set_refused(self, capsys, command, partial):
        code, out, err = run(capsys, *command, *partial)
        assert (code, out) == (1, "")
        assert err.splitlines() == [self.PARTIAL]

    def test_override_beside_a_partial_set_refused(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "dirac", "--n", "3",
                             "--a", "14", *FIG2_ARGS[4:])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: both laser/plasma inputs and the override `a` are set; "
            "exactly one may determine the coupling parameter"]


class TestUnreadFlags:
    """A command refuses a flag it does not read; a config key it accepts."""

    @pytest.mark.parametrize("argv,message", [
        (["figure", "1", "--a", "50", "--family", "weyl", "--n", "7"],
         "unrecognized arguments: --family weyl"),
        (["figure", "1", "--a", "50"], "figure 1 does not read --a"),
        (["figure", "1", "--n", "3", *FIG2_ARGS],
         "figure 1 does not read --photon-energy-ev, --intensity-w-cm2, "
         "--plasma-energy-ev, --n"),
        (["figure", "1", "--format", "json"], "unrecognized arguments: --format json"),
        (["params", "--family", "weyl", "--n", "-3"],
         "unrecognized arguments: --family weyl --n -3"),
        (["verify", "--family", "dirac", "--n", "3", "--a", "14", "--format", "csv"],
         "unrecognized arguments: --format csv"),
        (["spectrum", "--family", "dirac", "--n", "3", "--a", "14", "--k-select", "9",
          "--particle", "proton"], "unrecognized arguments: --k-select 9 --particle proton"),
        (["verify", "--all", "--family", "weyl", "--n", "-3"],
         "verify --all does not read --family, --n"),
        # no command reads a seed: the spacetime check's points are fixed
        (["spectrum", "--family", "dirac", "--n", "3", "--a", "14", "--seed", "7"],
         "unrecognized arguments: --seed 7"),
        (["modes", "--family", "dirac", "--n", "3", "--seed", "7"],
         "unrecognized arguments: --seed 7"),
        (["figure", "2", "--seed", "7"], "unrecognized arguments: --seed 7"),
        (["verify", "--family", "dirac", "--n", "3", "--a", "14", "--seed", "7"],
         "unrecognized arguments: --seed 7"),
        (["verify", "--all", "--seed", "7"], "unrecognized arguments: --seed 7"),
    ])
    def test_refused_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_config_keys_stay_accepted(self, capsys, tmp_path):
        # one file serves several commands: figure 1 reads none of these keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = weyl\nn = 7\na = 50\nk_select = 9\n"
                       "particle = proton\noutput.format = json\n")
        assert run(capsys, "figure", "1", "--config", str(cfg)) == \
            run(capsys, "figure", "1")


class TestConfigHandling:
    CONFIG = """\
# reference wave
laser.photon_energy_ev = 1.563
laser.intensity_w_cm2 = 1e8
plasma.energy_ev = 1.0
family = dirac
n = 2
output.format = json
"""

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg), "--n", "3")
        payload = json.loads(out)
        assert payload["n"] == 3

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("laser.wavelength_nm = 800\n")
        code, _, err = run(capsys, "params", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err

    @pytest.mark.parametrize("line", ["seed = 462", "plasma.electron_density_cm3 = 1e20"])
    @pytest.mark.parametrize("command", [["verify", "--all"], ["params"]])
    def test_dropped_keys_are_unknown(self, capsys, tmp_path, line, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        code, out, err = run(capsys, *command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {cfg}:1: unknown key {line.split()[0]!r}"]

    def test_duplicate_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nn = 3\n")
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 1
        assert "duplicate" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "--config", "/nonexistent.cfg")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "spectrum", "--wavelength", "800")
        assert code == 1

    def test_byte_determinism(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run(capsys, "verify", "--family", "kg-sin-odd",
                             "--n", "7", "--a", "14", "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "dirac", "--n", "2"],
        ["modes", "--family", "dirac", "--n", "2"],
        ["verify", "--family", "dirac", "--n", "2"],
        ["verify", "--all"],
    ])
    def test_negative_zero_coupling_prints_as_zero(self, capsys, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = -0\n")
        outputs = [run(capsys, *argv, *extra)
                   for extra in (["--a", "0"], ["--a", "-0"], ["--config", str(cfg)])]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_roundtrip_seventeen_digits(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "dirac",
                           "--n", "5", "--a", "14")
        payload = json.loads(out)
        from incevolkov.families import FamilyKind, SolutionFamily
        from incevolkov.operators import build_operator
        from incevolkov.spectra import solve_spectrum
        family = SolutionFamily(FamilyKind.DIRAC_PLUS, 5)
        exact = solve_spectrum(build_operator(family, 14.0)).etas
        assert np.array_equal(np.array(payload["etas"]), exact)
