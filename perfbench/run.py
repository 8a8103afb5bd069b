"""Benchmark of thermalmimic's CLI pipelines.

Run from the root of a source checkout (nothing needs to be installed; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload tomo-thermal --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --self-test

One run of a workload first times ``import thermalmimic.cli`` in several
fresh interpreters (``setup_s``, untraced runs only), then starts one
workload process (``worker.py``) that calls ``thermalmimic.cli.main(argv)``
repeatedly for ``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``)
and checks every output. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The lines before it name every
metric with its unit, the physics values read from the outputs and the
machine the run was made on. ``--workload all`` runs every workload and ends
with a table of them instead. ``--self-test`` runs every workload at a tiny
size, traced and untraced, and checks the harness itself.

A run pins itself, and so every process it starts, to one CPU, and runs BLAS
on one thread: at these matrix sizes a second thread gains nothing, and on
two shared cores each BLAS call would wait for the other core. Next to the
probes and the workload process, ``sampler.py`` times a fixed probe loop on
the same CPU fifty times a second. The two time metrics, ``solution_s`` and
``setup_s``, are medians of wall times each scaled by the sampler's reference
probe time over its mean probe time within that wall time, so that they hold
still while the host's speed changes. The unscaled times are printed in the
lines before the result.

Outputs go to ``.perfbench_run/`` in the checkout; the traced run leaves the
spans of its last traced invocation there as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sampler
from spans import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ".perfbench_run"
SETUP_PROBES = 5
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import thermalmimic.cli; "
    "print(t, time.perf_counter())"
)
#: Seconds between two probes of the speed sampler.
SAMPLE_PERIOD_S = 0.02
#: A window with fewer probes than this is scaled by the mean of all probes.
MIN_PROBES = 5
#: Thread-count variables of the BLAS libraries numpy and scipy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170
#: Units of the physics values read back from the outputs.
PHYSICS_UNITS = {"fidelity_ref": "1", "ll_per_record": "nat", "mle_iterations": "count",
                 "helstrom_hat_vs_hat": "1", "sweep_fidelity_min": "1", "required_db": "dB"}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: no program to run, a hang, or no success."""


def _environment() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@contextlib.contextmanager
def speed_sampler(env: dict):
    """Run ``sampler.py`` for the length of the block; yield its probes, filled in at the end."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("sampler.py")), str(SAMPLE_PERIOD_S)],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    probes = []
    try:
        yield probes
        out, _ = proc.communicate("", timeout=30)
        probes.extend(json.loads(out))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def scaled_seconds(windows: list, probes: list) -> list[float]:
    """Each window's wall seconds at the sampler's reference speed."""
    if not probes:
        raise BenchmarkError("the speed sampler recorded no probes")
    overall = statistics.fmean(seconds for _, seconds in probes)
    scaled = []
    for start, end in windows:
        inside = [seconds for at, seconds in probes if start <= at < end]
        speed = statistics.fmean(inside) if len(inside) >= MIN_PROBES else overall
        scaled.append((end - start) * sampler.REFERENCE_S / speed)
    return scaled


def measure_setup(env: dict, deadline: float) -> list[tuple[float, float]]:
    """Start and end of importing ``thermalmimic.cli`` in each of several fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
        if probe.returncode != 0:
            raise BenchmarkError(f"importing thermalmimic.cli failed:\n{probe.stderr}")
        start, end = probe.stdout.strip().splitlines()[-1].split()
        samples.append((float(start), float(end)))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; return its contract result plus report details."""
    if not (ROOT / "src" / "thermalmimic" / "cli.py").is_file():
        raise BenchmarkError(f"no thermalmimic sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    env = _environment()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    out_dir = Path(RUN_DIR) / f"{name}-seed{seed}"
    shutil.rmtree(ROOT / out_dir, ignore_errors=True)
    command = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out-dir", str(out_dir),
    ] + (["--tiny"] if tiny else [])
    try:
        with speed_sampler(env) as probes:
            setup = [] if trace else measure_setup(env, deadline)
            worker = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload {name} did not finish within {RUN_LIMIT_S} s") from exc
    finally:
        shutil.rmtree(ROOT / out_dir, ignore_errors=True)
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0 or not worker.stdout.strip():
        raise BenchmarkError(f"workload process exited with code {worker.returncode}")
    measured = json.loads(worker.stdout.strip().splitlines()[-1])
    if not measured["traced_s" if trace else "solution_s"]:
        raise BenchmarkError(f"no invocation of {name} succeeded: {measured['errors'][0]}")

    spec = _spec()
    physics = measured["physics"]
    if trace:
        wanted = spec["per_layer"]
        values = measured["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "solution_s": statistics.median(scaled_seconds(measured["solution_windows"], probes)),
            "setup_s": statistics.median(scaled_seconds(setup, probes)),
            "peak_rss_mb": measured["peak_rss_mb"],
            "fidelity_ref": physics["fidelity_ref"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"workload {name} did not measure {', '.join(missing)}")
    return {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "details": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "solution_s": measured["solution_s"], "traced_s": measured["traced_s"],
            "setup_s": [end - start for start, end in setup], "probes": len(probes),
            "probe_s": statistics.fmean(seconds for _, seconds in probes),
            "physics": physics, "errors": measured["errors"],
            "machine": {**measured["machine"], "nproc": NPROC, "pinned_cpu": cpu,
                        "blas_thread_env_found": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        },
    }


def _samples(values: list[float]) -> str:
    if not values:
        return "none"
    return (f"median {statistics.median(values):.4f} s, min {min(values):.4f}, "
            f"max {max(values):.4f}, n={len(values)}")


def print_report(result: dict) -> None:
    d = result["details"]
    print(f"workload {d['workload']}  seed {d['seed']}  seconds {d['seconds']}  trace {d['trace']}")
    print(f"  machine {json.dumps(d['machine'], sort_keys=True)}")
    print(f"  invocations: untraced {_samples(d['solution_s'])}; traced {_samples(d['traced_s'])}")
    if d["setup_s"]:
        print(f"  import thermalmimic.cli: {_samples(d['setup_s'])}")
    print(f"  speed sampler: {d['probes']} probes, mean {1e3 * d['probe_s']:.4f} ms "
          f"(reference {1e3 * sampler.REFERENCE_S:.4f} ms)")
    print(f"  attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    for error in d["errors"]:
        print(f"  FAILED {error}")
    for name, value in sorted(d["physics"].items()):
        print(f"  physics {name:<28} {value:>16.10g} {PHYSICS_UNITS[name]}")
    for name, metric in result["metrics"].items():
        computed = " (computed from array sizes)" if name.endswith(("_flops", "_bytes")) else ""
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}{computed}")
    if d["trace"]:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        shares = [f"{layer} {100 * values[f'{layer}.self_s'] / values['cli.main.s']:.1f}%"
                  for layer in LAYERS]
        print(f"  self-time shares of cli.main: {', '.join(shares)}")


def print_table(results: list[dict]) -> None:
    names = list(results[0]["metrics"])
    physics = sorted({p for r in results for p in r["details"]["physics"]} - set(names))
    units = {n: results[0]["metrics"][n]["unit"] for n in names}
    width = max(len(r["details"]["workload"]) for r in results) + 2
    print("metric".ljust(38) + "unit".ljust(8)
          + "".join(r["details"]["workload"].rjust(width) for r in results))
    rows = [("failed_frac", "1", [r["failed"] / r["attempted"] for r in results])]
    rows += [(n, units[n], [r["metrics"][n]["value"] for r in results]) for n in names]
    rows += [(p, PHYSICS_UNITS[p], [r["details"]["physics"].get(p) for r in results])
             for p in physics]
    for name, unit, values in rows:
        cells = "".join(("n/a" if v is None else f"{v:.6g}").rjust(width) for v in values)
        print(name.ljust(38) + unit.ljust(8) + cells)


def self_test() -> list[str]:
    """Run every workload at its tiny size, untraced and traced; return problems."""
    spec = _spec()
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=7, seconds=0, trace=trace, tiny=True)
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["attempted"] != 2:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed "
                                f"{result['details']['errors']}")
            if not trace:
                continue
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            if abs(layers["trace.unaccounted_s"]) > 1e-9 * max(layers["cli.main.s"], 1.0):
                problems.append(f"{label}: layer self times miss the root span by "
                                f"{layers['trace.unaccounted_s']:.3g} s")
            bypassed = name == "design-sweep"
            tomo_time = layers["tomo.self_s"] + layers["homodyne.self_s"]
            if bypassed != (tomo_time == 0):
                problems.append(f"{label}: {tomo_time:.3g} s in homodyne and tomo")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of thermalmimic's CLI pipelines.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            problems = self_test()
            for problem in problems:
                print(f"self-test: {problem}", file=sys.stderr)
            print("self-test " + ("FAILED" if problems else "passed"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        seconds = _spec()["run_seconds"] if args.seconds is None else args.seconds
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, seconds, bool(args.trace)))
            print_report(results[-1])
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print_table(results)
    else:
        result = results[0]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
