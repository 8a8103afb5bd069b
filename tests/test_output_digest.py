"""Smoke test of ``tools/output_digest.py``, the byte-identity check that
compares every CLI output of two source trees."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def run_digest(out_dir):
    return subprocess.run(
        [sys.executable, str(DIGEST), str(out_dir)], capture_output=True, text=True, timeout=300
    )


def test_output_digest_lists_the_same_digests_on_a_rerun(tmp_path):
    first = run_digest(tmp_path)
    assert first.returncode == 0, first.stderr
    listing = first.stdout.splitlines()
    assert listing
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in listing), listing[:3]
    for command_dir in tmp_path.iterdir():
        shutil.rmtree(command_dir)
    second = run_digest(tmp_path)
    assert second.returncode == 0, second.stderr
    assert second.stdout.splitlines() == listing


def test_output_digest_refuses_a_non_empty_out_dir(tmp_path):
    (tmp_path / "stale.json").write_text("{}\n")
    refused = run_digest(tmp_path)
    assert refused.returncode == 2
    assert "not empty" in refused.stderr
    assert refused.stdout == ""
