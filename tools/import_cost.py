"""Time what a fresh interpreter spends importing numpy and the thermalmimic CLI.

Usage: python3 tools/import_cost.py [--runs N]

Three cases, each timed in N fresh interpreters (default 15):

* ``numpy``: ``import numpy``;
* ``cli-source``: ``import thermalmimic.cli`` from a copy of the package's
  sources with no bytecode, so every probe compiles the package;
* ``cli-compiled``: ``import thermalmimic.cli`` from a second copy whose
  bytecode ``compileall`` wrote beforehand.

Both copies of ``src/thermalmimic`` live in a temporary directory that is
removed at the end, so no bytecode lands under ``src/``. The interpreters are
started one at a time, the cases interleaved (numpy, source, compiled,
numpy, ...), with ``PYTHONDONTWRITEBYTECODE=1`` and pinned as
``perfbench/run.py`` pins its runs: to the lowest CPU this process may use,
with one BLAS thread. Each interpreter times its own import statement with
``time.perf_counter``, as ``perfbench/run.py``'s ``setup_s`` probe does, so
interpreter start-up is not counted.

Prints one row per case, in milliseconds: the median and the quartiles
(inclusive method) of its N probes, then N. The difference of the two CLI
medians is what compiling the package costs each probe that runs from source.
"""

from __future__ import annotations

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The thread-count variables ``perfbench/run.py`` sets to 1.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = "import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
CASES = ("numpy", "cli-source", "cli-compiled")


def probe(module: str, path: Path) -> float:
    """Seconds a fresh interpreter, with ``path`` first on its module path,
    spends on ``import module``."""
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join([str(path), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", PROBE.format(module=module)], cwd=path,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def summary(seconds: list[float]) -> tuple[float, float, float]:
    """Median and inclusive quartiles of ``seconds``, in milliseconds."""
    ms = [1e3 * s for s in seconds]
    if len(ms) == 1:
        return ms[0], ms[0], ms[0]
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return median, q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="interpreters per case")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit the CPU
    with tempfile.TemporaryDirectory(prefix="import-cost-") as tmp:
        source, compiled = Path(tmp, "source"), Path(tmp, "compiled")
        for copy in (source, compiled):
            shutil.copytree(ROOT / "src" / "thermalmimic", copy / "thermalmimic",
                            ignore=shutil.ignore_patterns("__pycache__"))
        if not compileall.compile_dir(compiled, quiet=1):
            raise SystemExit("compileall failed on the package copy")
        targets = {"numpy": ("numpy", source), "cli-source": ("thermalmimic.cli", source),
                   "cli-compiled": ("thermalmimic.cli", compiled)}
        times = {case: [] for case in CASES}
        for _ in range(args.runs):
            for case in CASES:
                times[case].append(probe(*targets[case]))
    print(f"{'case':<14}{'median_ms':>10}{'q1_ms':>10}{'q3_ms':>10}{'n':>5}")
    for case in CASES:
        median, q1, q3 = summary(times[case])
        print(f"{case:<14}{median:>10.1f}{q1:>10.1f}{q3:>10.1f}{args.runs:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
