"""Record one benchmark pass of this source tree as ``BENCH_<LABEL>.json``.

Usage: python3 tools/bench_record.py LABEL

For each workload of ``BENCHMARK.json``, runs the ``perfbench/run.py`` of the
tree this script sits in twice, untraced (``--trace 0``) and traced
(``--trace 1``), each for ``run_seconds`` at seed 1. From each run's output it
keeps the ``machine`` line, the ``physics`` lines and the closing result line
(``correct``, ``attempted``, ``failed`` and the metrics), as measured, and
writes them all to ``BENCH_<LABEL>.json`` at the root of the tree: the
untraced run holds the end-to-end metrics, the traced one the per-layer
metrics. Its ``uncommitted`` list names the paths under ``src``, ``perfbench``
and ``BENCHMARK.json`` that differ from the commit the machine lines name
(``git status --porcelain``), so a pass over a modified tree shows as one; it
is null outside a git checkout. Its ``bytecode`` list names the ``*.pyc``
files under ``src`` when the pass starts: bytecode an earlier tree left there
is loaded for the modules it still matches, which moves ``peak_rss_mb``, so
a clean checkout gives an empty list. Exits 1 naming the first run that fails.

To record another commit, export it without touching the repository's git
state (``git archive <commit> | tar -x -C <dir>``), copy this script into the
export's ``tools/`` and run it there.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SCHEMA_VERSION = 1


def parse_run(text: str) -> dict:
    """The machine facts, physics values and result of one ``run.py`` output."""
    lines = text.strip().splitlines()
    record = {"machine": None, "physics": {}}
    for line in lines:
        words = line.split(maxsplit=1)
        if words[:1] == ["machine"]:
            record["machine"] = json.loads(words[1])
        elif words[:1] == ["physics"]:
            name, value, *_ = words[1].split()
            record["physics"][name] = float(value)
    result = json.loads(lines[-1])
    if record["machine"] is None:
        raise ValueError("the run printed no machine line")
    return {**record, **{key: result[key] for key in ("correct", "attempted", "failed", "metrics")}}


def uncommitted(porcelain: str) -> list[str]:
    """The paths of ``git status --porcelain`` output, in its order: modified,
    staged, deleted and untracked files, and a renamed file's new name."""
    return [line[3:].split(" -> ")[-1] for line in porcelain.splitlines() if line]


def tree_changes() -> list[str] | None:
    """The uncommitted paths that a benchmark pass runs, or None outside a git
    checkout (an export of a commit has no ``.git``)."""
    if not (ROOT / ".git").exists():
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench",
                             "BENCHMARK.json"], cwd=ROOT, capture_output=True, text=True, check=True)
    return uncommitted(status.stdout)


def bytecode(root: Path) -> list[str]:
    """The ``*.pyc`` files under ``root/src``, sorted, as paths relative to ``root``."""
    return sorted(path.relative_to(root).as_posix() for path in (root / "src").rglob("*.pyc"))


def run(workload: str, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} --trace {trace} exited {done.returncode}: {done.stderr.strip()}")
    return parse_run(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    (label,) = argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    stale = bytecode(ROOT)
    workloads = {
        w["name"]: {"untraced": run(w["name"], seconds, 0), "traced": run(w["name"], seconds, 1)}
        for w in spec["workloads"]
    }
    payload = {"schema_version": SCHEMA_VERSION, "label": label, "seed": SEED,
               "run_seconds": seconds, "uncommitted": tree_changes(), "bytecode": stale, "workloads": workloads}
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
