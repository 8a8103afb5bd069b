"""Run a fixed set of thermalmimic commands and print a digest of every output.

Usage: python3 tools/output_digest.py OUT_DIR
       python3 tools/output_digest.py --compare DIR_A DIR_B

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

``--compare DIR_A DIR_B`` reads two such output directories (copy the first
aside before the second run) and lists every file under either, sorted by
path: ``identical`` for byte-identical files, ``only in A`` / ``only in B``,
and for a JSON or CSV file that differs its keys added (``+``) and removed
(``-``) and, for each key whose values changed (``~``), the largest absolute
change of its numbers or ``not numeric``. A JSON key is the path to a value
with list indices written ``[]``, so one key covers every element of a list;
a CSV key is a column, or a ``key=value`` field of a ``#`` comment line. It
exits 0 when every file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import csv
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


def _json_keys(value, path: str, keys: dict) -> None:
    if isinstance(value, dict):
        for name, item in value.items():
            _json_keys(item, f"{path}.{name}" if path else name, keys)
    elif isinstance(value, list):
        for item in value:
            _json_keys(item, f"{path}[]", keys)
    else:
        keys.setdefault(path, []).append(value)


def _csv_keys(text: str) -> dict:
    keys: dict = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            for field in line[1:].split():
                name, _, value = field.partition("=")
                keys.setdefault(name, []).append(value)
        else:
            body.append(line)
    rows = list(csv.reader(body))
    if rows:
        for column, name in enumerate(rows[0]):
            keys[name] = [row[column] for row in rows[1:]]
    return keys


def keys_of(path: Path) -> dict | None:
    """Every key of a JSON or CSV file with its values in file order, or None
    for any other file."""
    if path.suffix == ".json":
        keys: dict = {}
        _json_keys(json.loads(path.read_text()), "", keys)
        return keys
    if path.suffix == ".csv":
        return _csv_keys(path.read_text())
    return None


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def key_changes(a: dict, b: dict) -> list[str]:
    """The ``+``, ``-`` and ``~`` lines of two files' keys (module docstring)."""
    lines = [f"  + {key}" for key in sorted(b.keys() - a.keys())]
    lines += [f"  - {key}" for key in sorted(a.keys() - b.keys())]
    for key in sorted(a.keys() & b.keys()):
        old, new = a[key], b[key]
        if old == new:
            continue
        pairs = [(_number(x), _number(y)) for x, y in zip(old, new)]
        if len(old) != len(new) or any(x is None or y is None for x, y in pairs):
            lines.append(f"  ~ {key}  not numeric")
        else:
            lines.append(f"  ~ {key}  {max(abs(y - x) for x, y in pairs):.3g}")
    return lines


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], bool]:
    """The listing of two output directories and whether every file is
    byte-identical."""
    def files(root: Path) -> set:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(dir_a), files(dir_b)
    lines, identical = [], in_a == in_b
    for name in sorted(in_a | in_b):
        if name not in in_a or name not in in_b:
            lines.append(f"only in {'A' if name in in_a else 'B'}  {name}")
            continue
        a, b = dir_a / name, dir_b / name
        if a.read_bytes() == b.read_bytes():
            lines.append(f"identical  {name}")
            continue
        identical = False
        keys_a, keys_b = keys_of(a), keys_of(b)
        lines.append(f"differs  {name}" + ("" if keys_a is not None else "  (not JSON or CSV)"))
        if keys_a is not None:
            lines += key_changes(keys_a, keys_b)
    return lines, identical


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        listing, same = compare(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(listing))
        sys.exit(0 if same else 1)
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(run(sys.argv[1]))
