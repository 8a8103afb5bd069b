"""Speed sampler: how fast the benchmark's CPU runs, moment by moment.

The benchmark shares a few cores of a host with other work, and the speed its
core gets changes by up to half within seconds and drifts over minutes,
whatever the program does. So while a run measures, this process shares the
one CPU the run is pinned to: every ``PERIOD`` seconds it wakes, times a fixed
pure-Python probe loop and goes back to sleep. The kernel's scheduler lets a
waking sleeper run at once, so the probes sample the core's speed all through
each CLI invocation, at a cost of about 2.5% of the CPU. ``run.py`` divides an
invocation's wall time by the mean probe time inside it (times a fixed
reference, so the result stays in seconds): a change to the program moves the
invocation and not the probes; a slow spell of the host moves both. Of the
probes tried (this loop, a strided walk through two megabytes of memory, and
numpy arithmetic on megabyte arrays), this loop followed the invocation times
of all three workloads most closely: correlation 0.94-0.97 over 14-28
invocations each, against 0.5-0.9 for the others.

Run as ``python3 sampler.py PERIOD``. It samples until its standard input
reaches end of file, then prints one JSON list of ``[start, seconds]`` pairs,
``start`` on the ``time.perf_counter`` clock, which every process shares.
"""

from __future__ import annotations

import json
import select
import sys
import time

#: Iterations of the probe loop.
PROBE_ITERATIONS = 5000
#: Mean seconds of one probe at the reference speed: the mean over a run on a
#: 2.0 GHz Xeon vCPU shared with a workload process.
REFERENCE_S = 0.0005


def probe() -> float:
    """Run the probe loop once; return its wall seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    period = float(sys.argv[1])
    samples = []
    while not select.select([sys.stdin], [], [], period)[0]:
        start = time.perf_counter()
        samples.append((start, probe()))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
