"""Command-line interface: commands, exit codes, exports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import incevolkov
import incevolkov.cli as cli
import incevolkov.verification as verification
from incevolkov.cli import main
from incevolkov.operators import TridiagonalOperator

FIG2_ARGS = ["--photon-energy-ev", "1.563", "--intensity-w-cm2", "1e8",
             "--plasma-energy-ev", "1.0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "modes", "--family", "kg-cos-even",
                           "--n", "2", "--a", "5", "--k-select", "2")
        payload = json.loads(out)
        assert payload["schema"] == "ince-volkov/1"
        assert len(payload["xi_rad"]) == len(payload["modes"][0]["density"])


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
            "k = 153, 154, 155, 156, 157, 158, 159, 160, 161, 162, 163, 164, 165, "
            "166, 185, 186, 187, 188, 189, 191; kg-cos-even n=100 a=14: "
            "k = 77, 78, 79, 80, 81, 82, 83, 93, 94, 95"]

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

    def test_free_grid_with_notes(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--a", "0", "--n", "3")
        # --all ignores n and runs the grid at the overridden coupling
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
        assert "FAIL dirac-plus n=3 a=5: ode, dense, sturm, pde\n" in err

    def test_huge_coupling_fails_not_structural(self, capsys):
        # the Sturm certificate's radii and the oracle agreement gate scale
        # with the eigenvalues near 1e150, so the oracles pass; e^(a/4)
        # overflows, so the spacetime check fails the point
        code, out, err = run(capsys, "verify", "--family", "dirac",
                             "--n", "3", "--a", "1e150")
        assert code == 2
        point = json.loads(out)["points"][0]
        assert point["dense"]["passed"] and point["sturm"]["passed"]
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

    @pytest.mark.parametrize("grid", [[], ["--all"]])
    def test_two_coupling_sources_rejected(self, capsys, grid):
        # --all takes its coupling from the same single source as one point
        code, out, err = run(capsys, "verify", *grid, "--family", "dirac",
                             "--n", "2", "--a", "5", *FIG2_ARGS)
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
            "n=40 a=14: k = 78, 80"]

    def test_spectrum_csv_to_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, err = run(capsys, "spectrum", "--family", "dirac", "--n", "40",
                             "--a", "14", "--format", "csv", "--out", str(path))
        assert code == 2
        rows = [l for l in path.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 81
        assert "k = 78, 80" in err

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
            "n=40 a=14: k = 80"]


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
        assert err.startswith("error: bond 0: super*sub overflows at a = 1e+300")

    def test_underflowing_coupling(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "kg-cos-even",
                             "--n", "2", "--a", "1e-200")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: bond 0: super*sub underflows at a = 1e-200")

    def test_sign_flip_still_structural(self, capsys, monkeypatch):
        def sign_flipped(family, a):
            return TridiagonalOperator(family=family, a=a, diag=np.zeros(2),
                                       super_=np.array([1e-200]),
                                       sub=np.array([-1e-200]))

        monkeypatch.setattr(cli, "build_operator", sign_flipped)
        code, out, err = run(capsys, "spectrum", "--family", "dirac",
                             "--n", "1", "--a", "1")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("structural error: bond 0: super*sub = -0.0 <= 0")

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


class TestInputLimits:
    def test_negative_seed_flag(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "dirac", "--n", "3",
                             "--a", "1", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: seed must be >= 0")

    def test_negative_seed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = dirac\nn = 3\na = 1\nseed = -1\n")
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: seed must be >= 0")

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

    def test_dense_check_past_range_limit(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "dirac", "--n", "101",
                             "--a", "1")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: dirac-plus n = 101 gives dimension 202, past the range "
            "limit of the dense cross-check (dim <= 200)"]


def _modules_after(code: str) -> list:
    """incevolkov and numpy.random modules loaded by `code` in a fresh interpreter."""
    src = str(Path(incevolkov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys\n{code}\n"
         "print(json.dumps(sorted(m for m in sys.modules "
         "if m.startswith(('incevolkov', 'numpy.random')))))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert _modules_after("import incevolkov") == ["incevolkov"]


# every name the package exports
EXPORTS = """
    ELECTRON_MASS PROTON_MASS InputError OverdenseError
    StructuralError VerificationFailure ALL_KINDS FamilyKind SolutionFamily
    parse_family_kind ModulationFunction contrast envelope_density
    eval_polynomial_part harmonic_strengths TridiagonalOperator
    build_operator DeBroglieMomentum DerivedQuantities LaserInput
    LongitudinalMomentum PlasmaInput WaveConfig coupling_parameter
    eta_to_longitudinal field_amplitude_from_intensity intensity_parameter
    refractive_index SpectralDecomposition
    solve_spectrum symmetrize ODE_RESIDUAL_TOL
    SAMPLING_SEED PdeResidualReport PdeStencil VerificationReport
    attach_residuals dense_oracle_crosscheck momentum_for_mode
    pde_residual_fd pde_stencil run_grid run_point sturm_crosscheck
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
])
def test_commands_leave_out_numpy_random_and_spinalg(argv):
    loaded = _modules_after(
        "import contextlib, io\n"
        "from incevolkov.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0")
    assert "incevolkov.verification" in loaded
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


class TestConfigHandling:
    CONFIG = """\
# reference wave
laser.photon_energy_ev = 1.563
laser.intensity_w_cm2 = 1e8
plasma.energy_ev = 1.0
family = dirac
n = 2
output.format = json
seed = 7
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
            code, _, _ = run(capsys, "spectrum", "--family", "kg-sin-odd",
                             "--n", "7", "--a", "14", "--seed", "11",
                             "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "dirac", "--n", "2"],
        ["modes", "--family", "dirac", "--n", "2"],
        ["verify", "--family", "dirac", "--n", "2"],
        ["verify", "--all", "--n", "2"],
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
