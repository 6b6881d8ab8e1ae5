"""Configuration parsing and merge semantics."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from incevolkov.cli import READS, build_parser
from incevolkov.config import RUN_INPUTS, RunConfig, load_config, parse_config_text
from incevolkov.constants import ELECTRON_MASS, PROTON_MASS
from incevolkov.errors import InputError
from incevolkov.families import FamilyKind, SolutionFamily, parse_family_kind
from incevolkov.operators import build_operator


class TestFamilyAliases:
    @pytest.mark.parametrize("name,kind", [
        ("dirac", FamilyKind.DIRAC_PLUS),
        ("dirac+", FamilyKind.DIRAC_PLUS),
        ("dirac-plus", FamilyKind.DIRAC_PLUS),
        ("dirac-", FamilyKind.DIRAC_MINUS),
        ("DIRAC-MINUS", FamilyKind.DIRAC_MINUS),
        (" kg-cos-even ", FamilyKind.KG_COS_EVEN),
        ("kg-sin-odd", FamilyKind.KG_SIN_ODD),
    ])
    def test_aliases(self, name, kind):
        assert parse_family_kind(name) is kind

    def test_unknown(self):
        with pytest.raises(InputError):
            parse_family_kind("weyl")


class TestParse:
    def test_values_and_comments(self):
        values = parse_config_text(
            "# comment\n"
            "\n"
            "laser.photon_energy_ev = 1.563\n"
            "k_select = 1, 3,5\n"
            "n = 0x14\n")
        assert values["photon_energy_ev"] == 1.563
        assert values["k_select"] == (1, 3, 5)
        assert values["n"] == 20

    def test_missing_equals(self):
        with pytest.raises(InputError):
            parse_config_text("family dirac\n")

    def test_bad_number(self):
        with pytest.raises(InputError):
            parse_config_text("n = twenty\n")


class TestRunConfig:
    def test_particle_masses(self):
        assert RunConfig(particle="electron").particle_mass_kg == ELECTRON_MASS
        assert RunConfig(particle="proton").particle_mass_kg == PROTON_MASS
        with pytest.raises(InputError):
            RunConfig(particle="muon")

    def test_proton_changes_mu0_not_a(self):
        base = dict(photon_energy_ev=1.563, intensity_w_cm2=1e8,
                    plasma_energy_ev=1.0)
        d_e = RunConfig(**base, particle="electron").wave_config().derived()
        d_p = RunConfig(**base, particle="proton").wave_config().derived()
        assert d_e.a == d_p.a
        assert d_e.mu0 != d_p.mu0

    def test_bad_format(self):
        with pytest.raises(InputError):
            RunConfig(output_format="yaml")

    def test_resolve_requires_source(self):
        with pytest.raises(InputError):
            RunConfig().resolve_a()

    def test_negative_override(self):
        # the sign is checked once, where the operator is built
        a = RunConfig(a_override=-1.0).resolve_a()
        with pytest.raises(InputError, match="a must be >= 0"):
            build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a)

    def test_flags_win(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("n = 5\nparticle = proton\n")
        cfg = load_config(str(cfg_file), {"n": "9", "particle": None})
        assert cfg.n == 9
        assert cfg.particle == "proton"


ROW_IDS = [row.name for row in RUN_INPUTS]


def _outcome(read):
    """(RunConfig, None) or (None, the one-line message of its InputError)."""
    try:
        return read(), None
    except InputError as exc:
        return None, str(exc)


def _both(path, row, text):
    """The outcomes of `text` given as the row's flag and as its file line."""
    path.write_text(f"{row.metadata['key']} = {text}\n")
    command = next(command for command, names in READS.items() if row.name in names)
    args = build_parser().parse_args([*command.split(), f"{row.metadata['flag']}={text}"])
    return (_outcome(lambda: load_config(args.config, vars(args))),
            _outcome(lambda: load_config(str(path), {})))


# texts a file line can hold: printable ASCII, no surrounding blanks
_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789+-_.,xXoObBeEnaifINFj "), max_size=8),
    st.integers(-10 ** 6, 10 ** 6).flatmap(
        lambda i: st.sampled_from([str(i), hex(i), oct(i), bin(i), f"{i:_}", f"0{i}"])),
    st.floats().map(repr),
    st.sampled_from(["json", "csv", "yaml", "electron", "proton", "muon", "dirac",
                     "kg-cos-even", "out.csv", "1,,2", "1, 3,5", "1,x", ""]),
).filter(lambda t: t == t.strip())


class TestFlagFileParity:
    """A flag and its config line go through one parser and one check."""

    def test_every_row_has_a_key_and_a_flag(self):
        assert len(RUN_INPUTS) == 10
        for row in RUN_INPUTS:
            assert row.metadata["key"] and row.metadata["flag"].startswith("--")
            assert row.metadata["help"]

    def test_one_row_per_input(self):
        assert [row.metadata["key"] for row in RUN_INPUTS] == [
            "laser.photon_energy_ev", "laser.intensity_w_cm2", "plasma.energy_ev",
            "particle", "family", "n", "a", "k_select", "output.format", "output.path"]
        assert [row.metadata["flag"] for row in RUN_INPUTS] == [
            "--photon-energy-ev", "--intensity-w-cm2", "--plasma-energy-ev",
            "--particle", "--family", "--n", "--a", "--k-select", "--format", "--out"]
        # every flag reaches its row's attribute as raw text, on each
        # command that reads the row, and some command reads every flag
        for command, names in READS.items():
            rows = [row for row in RUN_INPUTS if row.name in names]
            argv = [*command.split(), *(f"{row.metadata['flag']}=x" for row in rows)]
            args = vars(build_parser().parse_args(argv))
            assert {name for name, value in args.items() if value == "x"} == \
                {row.name for row in rows}
        assert {name for names in READS.values() for name in names} >= set(ROW_IDS)

    @pytest.mark.parametrize("row", RUN_INPUTS, ids=ROW_IDS)
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_TEXT)
    def test_same_config_or_same_error(self, tmp_path, row, text):
        path = tmp_path / "run.cfg"
        (flag_cfg, flag_err), (file_cfg, file_err) = _both(path, row, text)
        assert flag_cfg == file_cfg
        assert (flag_err is None) == (file_err is None)
        if flag_err is None:
            return
        assert "\n" not in flag_err and "\n" not in file_err
        flag_source = f"{row.metadata['flag']}: "
        if flag_err.startswith(flag_source):        # a parse error names its source
            file_source = f"{path}:1: {row.metadata['key']}: "
            assert file_err == file_source + flag_err[len(flag_source):]
        else:                                       # a RunConfig check names the key
            assert file_err == flag_err
            assert flag_err.startswith(f"{row.metadata['key']} ")

    @pytest.mark.parametrize("attr,text,value", [
        ("n", "0x1C", 28),
        ("n", "0x2", 2),
        ("a_override", "-0", 0.0),
        ("k_select", "1,,2", (1, 2)),
    ])
    def test_valid_text(self, tmp_path, attr, text, value):
        row = next(row for row in RUN_INPUTS if row.name == attr)
        (flag_cfg, _), (file_cfg, _) = _both(tmp_path / "run.cfg", row, text)
        assert flag_cfg == file_cfg
        assert getattr(flag_cfg, attr) == value

    def test_negative_zero_prints_as_zero(self, tmp_path):
        row = next(row for row in RUN_INPUTS if row.name == "a_override")
        (flag_cfg, _), (file_cfg, _) = _both(tmp_path / "run.cfg", row, "-0")
        assert [str(cfg.resolve_a()) for cfg in (flag_cfg, file_cfg)] == ["0.0", "0.0"]

    @pytest.mark.parametrize("attr,text,flag_err,file_err", [
        ("n", "010", "--n: expected an integer, got '010'",
         "n: expected an integer, got '010'"),
        ("n", "twenty", "--n: expected an integer, got 'twenty'",
         "n: expected an integer, got 'twenty'"),
        ("k_select", "1,x", "--k-select: expected comma-separated integers, got '1,x'",
         "k_select: expected comma-separated integers, got '1,x'"),
        ("k_select", "", "--k-select: expected comma-separated integers, got ''",
         "k_select: expected comma-separated integers, got ''"),
        ("output_path", "", "--out: expected a file path, got ''",
         "output.path: expected a file path, got ''"),
        ("a_override", "nan", "a must be finite, got nan", None),
        ("output_format", "yaml", "output.format must be json or csv, got 'yaml'", None),
    ])
    def test_invalid_text(self, tmp_path, attr, text, flag_err, file_err):
        row = next(row for row in RUN_INPUTS if row.name == attr)
        path = tmp_path / "run.cfg"
        (_, got_flag), (_, got_file) = _both(path, row, text)
        assert got_flag == flag_err
        assert got_file == (flag_err if file_err is None else f"{path}:1: {file_err}")
