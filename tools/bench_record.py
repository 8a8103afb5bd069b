"""Record one benchmark pass of this source tree as ``BENCH_<LABEL>.json``,
optionally with alternating pairs against another commit.

Usage: python3 tools/bench_record.py LABEL [--against COMMIT --pairs N] [--workload W] [--seed S]

For each workload of ``BENCHMARK.json`` (or only ``W``), runs the
``perfbench/run.py`` of the tree this script sits in twice, untraced
(``--trace 0``) and traced (``--trace 1``), each for ``run_seconds`` at seed
``S`` (default 1). From each run's output it keeps the ``machine`` line, the
``physics`` lines and the closing result line (``correct``, ``attempted``,
``failed`` and the metrics), as measured, and writes them all to
``BENCH_<LABEL>.json`` at the root of the tree: the untraced run holds the
end-to-end metrics, the traced one the per-layer metrics. Its ``uncommitted``
list names the paths under ``src``, ``perfbench`` and ``BENCHMARK.json`` that
differ from the commit the machine lines name (``git status --porcelain``),
so a pass over a modified tree shows as one; it is null outside a git
checkout. Its ``bytecode`` list names the ``*.pyc`` files under ``src`` when
the pass starts: bytecode an earlier tree left there is loaded for the modules
it still matches, which moves ``peak_rss_mb``, so a clean checkout gives an
empty list. Beside it, ``PYTHONDONTWRITEBYTECODE`` holds that variable as this
script found it, or null when unset: the runs inherit it, and with it set no
interpreter writes bytecode, so every fresh one compiles the modules that no
``*.pyc`` holds, which moves ``setup_s`` and ``peak_rss_mb``.
``MALLOC_MMAP_THRESHOLD_`` is kept the same way: the runs inherit it too, and
glibc's threshold decides which allocations are mapped apart from the heap,
which moves ``peak_rss_mb`` by tenths of a MB with the allocation order alone.
Exits 1 naming the first run that fails.

With ``--against COMMIT --pairs N`` (N >= 2), it also exports COMMIT by
``git archive`` into a temporary directory and, per workload, runs N pairs of
untraced passes, one of each tree, COMMIT first in odd pairs and this tree
first in even ones. The ``pairs`` block of the BENCH file holds the commit,
every pair's two records and, per end-to-end metric, each side's median and
quartiles (inclusive method) and the pairs this tree wins (better by the
metric's ``better`` direction; ties count for neither side). ``--against``
this tree's own commit on a clean checkout gives the harness's A/A spread.

To record another commit alone, export it without touching the repository's
git state (``git archive <commit> | tar -x -C <dir>``), copy this script into
the export's ``tools/`` and run it there.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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


def run(root: Path, workload: str, seconds: int, trace: int, seed: int) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{root}: {workload} --trace {trace} exited {done.returncode}: "
                 f"{done.stderr.strip()}")
    return parse_run(done.stdout)


def export(commit: str, into: Path) -> str:
    """Extract ``git archive`` of ``commit`` into ``into``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return sha


def pair_order(number: int) -> tuple[str, str]:
    """The sides of pair ``number`` (counted from 1) in the order they run."""
    return ("against", "tree") if number % 2 else ("tree", "against")


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json``: each side's median and
    quartiles over the pairs, and the pairs in which the tree reads better."""
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in ("against", "tree")}
        summary[name] = {
            "better": metric["better"],
            **{side: dict(zip(("q1", "median", "q3"),
                              statistics.quantiles(values[side], n=4, method="inclusive")))
               for side in values},
            "wins": sum(sign * (tree - against) > 0.0
                        for against, tree in zip(values["against"], values["tree"])),
        }
    return summary


def run_pairs(against: Path, workload: str, count: int, seconds: int, seed: int) -> list[dict]:
    roots = {"against": against, "tree": ROOT}
    pairs = []
    for number in range(1, count + 1):
        sides = pair_order(number)
        records = {side: run(roots[side], workload, seconds, 0, seed) for side in sides}
        pairs.append({"first": sides[0], **records})
        print(f"{workload} pair {number}/{count}: " + ", ".join(
            f"{side} {records[side]['metrics']['solution_s']['value']:.5f} s" for side in sides),
              file=sys.stderr)
    return pairs


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench_record.py")
    parser.add_argument("label")
    parser.add_argument("--against", metavar="COMMIT")
    parser.add_argument("--pairs", type=int, metavar="N")
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1, metavar="S")
    args = parser.parse_args(argv)
    if (args.against is None) != (args.pairs is None):
        parser.error("--against and --pairs go together")
    if args.pairs is not None and args.pairs < 2:
        parser.error(f"--pairs must be >= 2, got {args.pairs}")
    return args


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    stale = bytecode(ROOT)
    workloads = {name: {"untraced": run(ROOT, name, seconds, 0, args.seed),
                        "traced": run(ROOT, name, seconds, 1, args.seed)} for name in names}
    payload = {"schema_version": SCHEMA_VERSION, "label": args.label, "seed": args.seed,
               "run_seconds": seconds, "uncommitted": tree_changes(), "bytecode": stale,
               "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
               "MALLOC_MMAP_THRESHOLD_": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
               "workloads": workloads}
    if args.against is not None:
        with tempfile.TemporaryDirectory(prefix="bench_record_") as scratch:
            commit = export(args.against, Path(scratch))
            payload["pairs"] = {"against": commit, "workloads": {}}
            for name in names:
                pairs = run_pairs(Path(scratch), name, args.pairs, seconds, args.seed)
                payload["pairs"]["workloads"][name] = {
                    "runs": pairs, "metrics": summarize(pairs, spec["end_to_end"])}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
