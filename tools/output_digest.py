"""Run a fixed set of thermalmimic commands and print a digest of every output.

Usage: python3 tools/output_digest.py OUT_DIR

Runs the source tree this script sits in (``src/`` and ``perfbench/`` next to
``tools/``): every command of ``perfbench/workloads.py``, full and tiny, at
seed 3, then raw-path, coherent (one of them a three-run ensemble, so that a
run that is neither first nor last is digested), artificial at the CLI
defaults (so that the artificial source and its thermal ensemble take phase
blocks), random-sweep, codebook re-export and ``metrics`` runs. It then cuts
three input files from outputs already written (a bare density matrix, a
matrix wrapped as ``{"matrix": ...}`` and a bare codebook) and feeds them to
``metrics`` and ``codebook-export --codebook-file``, so every input layout
the CLI parses is covered. Each command writes under its own directory of OUT_DIR, which must
be empty or absent. Prints one ``sha256  relative/path`` line per file under
OUT_DIR, sorted by path, and exits 1 naming the first command that fails.

Run it in two trees with the same OUT_DIR (the config hash every output
carries includes ``out_dir``), emptying OUT_DIR between the runs, and
``diff`` the two listings: equal listings mean byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402
from thermalmimic.cli import main  # noqa: E402

SEED = 3

#: Input files cut from outputs: (input, the output it is cut from, the keys
#: leading to it there), relative to OUT_DIR.
DERIVED = (
    ("inputs/matrix.json", "tomo-coherent/ensemble.json", ("ensemble", "matrix")),
    ("inputs/wrapped-matrix.json", "tomo-vacuum-raw/ensemble.json", ("ensemble",)),
    ("inputs/codebook.json", "codebook/codebook.json", ("codebook",)),
)


def commands(out: str) -> list[list[str]]:
    """Every command, ``--out-dir`` (or ``--out``) included, in run order."""
    argvs = [
        argv
        for name, workload in WORKLOADS.items()
        for size in ("full", "tiny")
        for argv in workload.argv(SEED, f"{out}/{name}/{size}", tiny=size == "tiny")
    ]
    argvs += [
        ["tomo-end2end", "--source", "vacuum", "--runs", "1", "--gain", "2.5", "--offset", "0.3",
         "--convention", "quarter", "--out-dir", f"{out}/tomo-vacuum-raw"],
        ["tomo-end2end", "--source", "thermal", "--runs", "2", "--gain", "1.7", "--offset", "-0.2",
         "--out-dir", f"{out}/tomo-thermal-raw"],
        ["tomo-end2end", "--source", "coherent", "--runs", "1", "--out-dir", f"{out}/tomo-coherent"],
        ["tomo-end2end", "--source", "coherent", "--runs", "3", "--phases", "10",
         "--samples-per-phase", "20", "--cutoff", "6", "--out-dir", f"{out}/tomo-coherent-3runs"],
        ["tomo-end2end", "--source", "artificial", "--runs", "2", "--out-dir", f"{out}/tomo-artificial"],
        ["mimic-sweep", "--scheme", "random", "--trials", "3", "--out-dir", f"{out}/sweep-random"],
        ["codebook-export", "--scheme", "random", "--seed", "5", "--out-dir", f"{out}/codebook"],
        ["codebook-export", "--codebook-file", f"{out}/codebook/codebook.json",
         "--out-dir", f"{out}/codebook-reexport"],
        ["metrics", f"{out}/tomo-vacuum-raw/ensemble.json", f"{out}/tomo-thermal-raw/ensemble.json",
         "--out", f"{out}/metrics/metrics.json"],
    ]
    return argvs


def derived_commands(out: str) -> list[list[str]]:
    """The commands that read the ``DERIVED`` inputs."""
    return [
        ["metrics", f"{out}/inputs/matrix.json", f"{out}/inputs/wrapped-matrix.json",
         "--out", f"{out}/metrics-derived/metrics.json"],
        ["codebook-export", "--codebook-file", f"{out}/inputs/codebook.json",
         "--out-dir", f"{out}/codebook-bare"],
    ]


def write_derived(out: Path) -> None:
    for name, source, keys in DERIVED:
        value = json.loads((out / source).read_text())
        for key in keys:
            value = value[key]
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(json.dumps(value) + "\n")


def run_all(argvs: list[list[str]]) -> bool:
    for argv in argvs:
        code = main(argv)
        if code != 0:
            print(f"exit {code}: thermalmimic {' '.join(argv)}", file=sys.stderr)
            return False
    return True


def run(out_dir: str) -> int:
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        print(f"{out_dir} is not empty; give an empty or absent directory", file=sys.stderr)
        return 2
    if not run_all(commands(out_dir)):
        return 1
    write_derived(out)
    if not run_all(derived_commands(out_dir)):
        return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(run(sys.argv[1]))
