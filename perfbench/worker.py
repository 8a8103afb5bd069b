"""Workload process of the thermalmimic benchmark.

Runs one workload's CLI invocations back to back through
``thermalmimic.cli.main(argv)`` until the next one would end after
``--seconds`` (at least two invocations), checks every invocation's output
files, and prints one JSON object as its last line of standard output.
``run.py`` starts this process; it is not meant to be run by hand.

Every invocation of a run has the same inputs, so each one's output files
must be byte-identical to the first one's. An invocation fails on a non-zero
exit code, a missing ``version`` or ``config_hash`` stamp, a reconstruction
that did not converge, or outputs that differ from the first invocation's.
Physics values (fidelities, likelihoods) are recorded, never gated.

With ``--trace 1`` every second invocation runs under the span tracer, the
others untraced, so the run also measures what tracing costs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import thermalmimic
from thermalmimic import cli
from spans import LAYERS, Tracer, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_INVOCATIONS = 2
MAX_INVOCATIONS = 200
CONFIG_HASH = re.compile(r"[0-9a-f]{16}")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Functions whose call counts are reported, and those whose self time is.
COUNTED = ("homodyne.sample", "homodyne.quadrature_pdf", "tomo.mle_reconstruct",
           "mimic.assemble", "fock.coherent_pure", "metrics.fidelity",
           "physical.codebook_to_drive")
TIMED = COUNTED + ("homodyne.simulate_raw", "homodyne.calibrate", "tomo.measurement_matrix",
                   "tomo.average", "mimic.optimize_weights", "fock.mix", "metrics.compare")
WORK = ("homodyne.pdf_flops", "homodyne.pdf_bytes", "tomo.iterations", "tomo.unconverged",
        "tomo.kernel_flops", "tomo.kernel_bytes")


class OutputError(Exception):
    """An invocation's outputs break what the CLI promises."""


def _json(files: dict, name: str) -> dict:
    if name not in files:
        raise OutputError(f"{name} was not written")
    return json.loads(files[name])


def _stamp(payload: dict, name: str) -> str:
    if payload.get("version") != thermalmimic.__version__:
        raise OutputError(f"{name} carries version {payload.get('version')!r}")
    chash = payload.get("config_hash", "")
    if not CONFIG_HASH.fullmatch(chash):
        raise OutputError(f"{name} carries config_hash {chash!r}")
    return chash


def _csv_rows(files: dict, name: str, chash: str) -> list[str]:
    if name not in files:
        raise OutputError(f"{name} was not written")
    lines = files[name].decode().splitlines()
    if lines[0] != f"# version={thermalmimic.__version__} config_hash={chash}":
        raise OutputError(f"{name} stamp {lines[0]!r} does not match config_hash {chash}")
    return lines[2:]


def _finite(values: dict, name: str) -> None:
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise OutputError(f"{name} has non-finite {', '.join(bad)}")


def check_tomo(files: dict) -> dict:
    ensemble = _json(files, "ensemble.json")
    report = _json(files, "metrics.json")
    if _stamp(ensemble, "ensemble.json") != _stamp(report, "metrics.json"):
        raise OutputError("ensemble.json and metrics.json carry different config hashes")
    config, runs, values = ensemble["config"], ensemble["runs"], report["metrics"]
    expected = config["runs"] * (2 if config["source"] == "artificial" else 1)
    if len(runs) != expected:
        raise OutputError(f"ensemble.json lists {len(runs)} runs, expected {expected}")
    unconverged = [i for i, run in enumerate(runs) if not run["converged"]]
    if unconverged:
        raise OutputError(f"runs {unconverged} did not converge")
    _finite(values, "metrics.json")
    records = config["phases"] * config["samples_per_phase"]
    physics = {
        "fidelity_ref": values["fidelity"],
        "ll_per_record": statistics.fmean(r["final_log_likelihood"] for r in runs) / records,
        "mle_iterations": sum(r["iterations"] for r in runs),
    }
    if "helstrom_vs_thermal_reconstruction" in values:
        physics["helstrom_hat_vs_hat"] = values["helstrom_vs_thermal_reconstruction"]
    return physics


def check_sweep(files: dict) -> dict:
    summary = _json(files, "sweep_summary.json")
    rows = _csv_rows(files, "sweep.csv", _stamp(summary, "sweep_summary.json"))
    config = summary["config"]
    cells = len(config["nbars"]) * len(config["samples"])
    if summary["n_rows"] != cells or len(rows) != cells:
        raise OutputError(f"sweep has {len(rows)} rows, expected {cells}")
    fidelities = [float(row.split(",")[3]) for row in rows]
    if not all(0.0 < f <= 1.0 for f in fidelities) or min(fidelities) != summary["fidelity_min"]:
        raise OutputError("sweep fidelities are out of range or disagree with the summary")
    return {"fidelity_ref": summary["fidelity_min"], "sweep_fidelity_min": summary["fidelity_min"]}


def check_codebook(files: dict) -> dict:
    codebook = _json(files, "codebook.json")
    rows = _csv_rows(files, "drive.csv", _stamp(codebook, "codebook.json"))
    symbols = codebook["config"]["codebook_amplitudes"] * codebook["config"]["codebook_phases"]
    if len(rows) != symbols:
        raise OutputError(f"drive.csv has {len(rows)} rows, expected {symbols}")
    _finite({"required_db": codebook["required_db"]}, "codebook.json")
    return {"required_db": codebook["required_db"]}


CHECKS = {"tomo-end2end": check_tomo, "mimic-sweep": check_sweep, "codebook-export": check_codebook}


def invoke(commands: list[list[str]], out_dir: Path) -> tuple[tuple[float, float], dict, dict]:
    """Run one invocation; return its start and end times, physics values and output bytes."""
    for stale in out_dir.glob("*"):
        stale.unlink()
    start = time.perf_counter()
    for argv in commands:
        code = cli.main(argv)
        if code != 0:
            raise OutputError(f"{argv[0]} exited with code {code}")
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    physics = {}
    for argv in commands:
        physics.update(CHECKS[argv[0]](files))
    return (start, time.perf_counter()), physics, files


def layer_metrics(tracer: Tracer) -> dict:
    summary = summarize(tracer.spans)
    metrics = {f"{layer}.self_s": summary["layer_self_s"][layer] for layer in LAYERS}
    metrics.update({f"{name}.calls": summary["calls"][name] for name in COUNTED})
    metrics.update({f"{name}.self_s": summary["self_s"][name] for name in TIMED})
    metrics.update({name: tracer.work[name] for name in WORK})
    metrics["tomo.mle_reconstruct.s_p50"] = summary["p50_s"].get("tomo.mle_reconstruct", 0.0)
    iterations = tracer.work["tomo.iterations"]
    metrics["tomo.ms_per_iter"] = (
        1e3 * metrics["tomo.mle_reconstruct.self_s"] / iterations if iterations else 0.0
    )
    metrics["cli.main.s"] = summary["root_s"]
    metrics["trace.unaccounted_s"] = summary["unaccounted_s"]
    return metrics


def machine_facts() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "thermalmimic").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, tiny: bool) -> dict:
    commands = WORKLOADS[workload].argv(seed, str(out_dir), tiny)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    windows = {False: [], True: []}
    layers, errors = [], []
    reference, physics = None, {}
    attempted = 0
    while attempted < MAX_INVOCATIONS:
        traced = trace and attempted % 2 == 1
        attempted += 1
        started = time.perf_counter()
        try:
            if traced:
                tracer.reset()
                tracer.install()
            try:
                window, physics_now, files = invoke(commands, out_dir)
            finally:
                if traced:
                    tracer.uninstall()
            if reference is None:
                reference, physics = files, physics_now
            elif files != reference:
                differing = sorted(n for n in files.keys() | reference.keys()
                                   if files.get(n) != reference.get(n))
                raise OutputError(f"outputs {differing} differ from the first invocation's")
            if traced:
                layers.append(layer_metrics(tracer))
            windows[traced].append(window)
        except Exception as exc:  # the harness boundary: count the failure, keep measuring
            traceback.print_exc()
            errors.append(f"invocation {attempted}: {type(exc).__name__}: {exc}")
        last = time.perf_counter() - started
        if attempted >= MIN_INVOCATIONS and time.perf_counter() + last > deadline:
            break

    result = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "solution_s": [end - start for start, end in windows[False]],
        "solution_windows": windows[False],
        "traced_s": [end - start for start, end in windows[True]],
        "physics": physics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if trace:
        result["layers"] = {
            name: statistics.mean(run[name] for run in layers) for name in layers[0]
        } if layers else {}
        if windows[False] and windows[True]:
            result["layers"]["trace.overhead_s"] = (
                statistics.median(result["traced_s"]) - statistics.median(result["solution_s"])
            )
        if tracer.spans:
            spans_file = out_dir.with_suffix(".spans.json")
            spans_file.write_text(json.dumps(tracer.spans))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 Path(args.out_dir), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
