"""The byte-identity check `tests/same_outputs.py`, on its --smoke list."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tests" / "same_outputs.py"


def _compare(against):
    return subprocess.run([sys.executable, str(SCRIPT), "--against", str(against), "--smoke"],
                          capture_output=True, text=True, timeout=300)


def test_tree_matches_itself():
    proc = _compare(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("0 of ")


def test_a_changed_output_is_listed(tmp_path):
    # a copy whose figure 1 table has one point fewer: only that command differs
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "incevolkov" / "cli.py"
    text = cli.read_text()
    assert "FIGURE1_POINTS = 513\n" in text
    cli.write_text(text.replace("FIGURE1_POINTS = 513\n", "FIGURE1_POINTS = 512\n"))
    proc = _compare(tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differs = [line for line in proc.stdout.splitlines() if line.startswith("differs")]
    assert len(differs) == 1
    assert differs[0].startswith("differs (files): incevolkov figure 1 --config ")
    assert proc.stdout.splitlines()[-1].startswith("1 of ")
