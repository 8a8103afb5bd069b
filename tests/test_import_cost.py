"""Smoke test of ``tools/import_cost.py`` at one interpreter per case."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_cost_prints_one_row_per_case_and_leaves_src_without_bytecode():
    before = sorted((ROOT / "src").rglob("*.pyc"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "import_cost.py"), "--runs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["case", "median_ms", "q1_ms", "q3_ms", "n"]
    assert [row.split()[0] for row in rows] == ["numpy", "cli-source", "cli-compiled"]
    for row in rows:
        median, q1, q3, n = row.split()[1:]
        assert float(median) == float(q1) == float(q3) > 0.0  # one probe is its own quartiles
        assert n == "1"
    assert sorted((ROOT / "src").rglob("*.pyc")) == before
