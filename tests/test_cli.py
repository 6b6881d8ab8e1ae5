"""Command-line interface: commands, exit codes, exports, determinism."""

import json

import numpy as np
import pytest

import incevolkov.verification as verification
from incevolkov.cli import main

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
        assert "FAIL dirac-plus n=3" in err

    def test_structural_error_exit_code(self, capsys, monkeypatch):
        from incevolkov.errors import StructuralError

        def broken(*args, **kwargs):
            raise StructuralError("synthetic")

        monkeypatch.setattr(verification, "run_point", broken)
        code, _, err = run(capsys, "verify", "--family", "dirac",
                           "--n", "3", "--a", "5")
        assert code == 3


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

    def test_roundtrip_seventeen_digits(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "dirac",
                           "--n", "5", "--a", "14")
        payload = json.loads(out)
        from incevolkov.operators import build_dirac_operator
        from incevolkov.spectra import solve_spectrum
        exact = solve_spectrum(build_dirac_operator(5, 14.0)).etas
        assert np.array_equal(np.array(payload["etas"]), exact)
