"""Smoke test of ``tools/output_digest.py``, the byte-identity check that
compares every CLI output of two source trees, and its ``--compare`` listing
on fixed outputs."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


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


def test_compare_lists_identical_files_and_each_changed_key(tmp_path):
    # fixed outputs in two directories; no command runs
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.json").write_text('{"x": [1.0, 2.0]}\n')
    (a / "run" / "ensemble.json").write_text(json.dumps({
        "config": {"out_dir": "a", "seed": 1},
        "runs": [{"iterations": 6, "gap": 0.5}, {"iterations": 7, "gap": 0.25}],
        "matrix": [[1.0, 2.0], [3.0, 4.0]], "old": True}))
    (b / "run" / "ensemble.json").write_text(json.dumps({
        "config": {"out_dir": "b", "seed": 1},
        "runs": [{"iterations": 6, "gap": 0.5}, {"iterations": 7, "gap": 0.125}],
        "matrix": [[1.0, 2.5], [3.0, 3.0]], "new": None}))
    (a / "run" / "sweep.csv").write_text("# version=0.1.0 config_hash=aa\nnbar,M,fid\n0.5,16,0.99\n")
    (b / "run" / "sweep.csv").write_text("# version=0.1.0 config_hash=bb\nnbar,M,fid\n0.5,16,0.98\n")
    (a / "run" / "notes.txt").write_text("one\n")
    (b / "run" / "notes.txt").write_text("two\n")
    (a / "gone.json").write_text("{}\n")
    (b / "added.csv").write_text("k\n1\n")
    listing, identical = output_digest.compare(a, b)
    assert not identical
    assert listing == [
        "only in B  added.csv",
        "only in A  gone.json",
        "differs  run/ensemble.json",
        "  + new",
        "  - old",
        "  ~ config.out_dir  not numeric",
        "  ~ matrix[][]  1",
        "  ~ runs[].gap  0.125",
        "differs  run/notes.txt  (not JSON or CSV)",
        "identical  run/same.json",
        "differs  run/sweep.csv",
        "  ~ config_hash  not numeric",
        "  ~ fid  0.01",
    ]


def test_compare_of_a_directory_with_its_copy_marks_every_file_identical(tmp_path):
    (tmp_path / "a" / "run").mkdir(parents=True)
    (tmp_path / "a" / "run" / "metrics.json").write_text('{"fidelity": 0.95}\n')
    (tmp_path / "a" / "run" / "drive.csv").write_text("# version=0.1.0\nindex\n0\n")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    listing, identical = output_digest.compare(tmp_path / "a", tmp_path / "b")
    assert identical
    assert listing == ["identical  run/drive.csv", "identical  run/metrics.json"]
