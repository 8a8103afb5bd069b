"""Reproducible experiment runner for the thermal-mimicry toolkit.

Subcommands
-----------
mimic-sweep      fidelity of mimicked states over a (nbar, constellation size) grid
tomo-end2end     source state -> homodyne sampling -> MLE x runs -> ensemble + metrics
codebook-export  codebook JSON plus modulator drive table with feasibility check
metrics          metric report between two serialized density matrices

Every command resolves its configuration from built-in defaults, an optional
JSON config file, and long-form flag overrides (in that order), validates it,
and writes deterministic outputs stamped with the toolkit version and a hash
of the resolved configuration. Exit codes: 0 ok, 2 config error, 3 numerical
failure, 4 physical infeasibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, fock, homodyne, metrics, mimic, physical, tomo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


class ConfigError(ValueError):
    pass


SWEEP_DEFAULTS = {
    "nbars": [0.5, 1.0, 1.5, 2.0],
    "samples": [4, 16, 36, 64, 100],
    "scheme": "stratified",
    "cutoff": 30,
    "trials": 1,
    "seed": 0,
    "out_dir": ".",
}

TOMO_DEFAULTS = {
    "source": "thermal",
    "nbar": 1.35,
    "codebook_amplitudes": 8,
    "codebook_phases": 8,
    "scheme": "stratified",
    "source_cutoff": 30,
    "cutoff": 12,
    "phases": 50,
    "samples_per_phase": 40,
    "runs": 10,
    "seed": 1,
    "convention": "half",
    "gain": None,
    "offset": 0.0,
    "max_iterations": 2000,
    "stop_tol": 1e-7,
    "dilution": 0.5,
    "out_dir": ".",
}

CODEBOOK_DEFAULTS = {
    "nbar": 1.5,
    "codebook_amplitudes": 8,
    "codebook_phases": 8,
    "scheme": "stratified",
    "seed": None,
    "codebook_file": None,
    "wavelength": 1560.625e-9,
    "tau": 13e-9,
    "extinction_db": 25.0,
    "ideal": False,
    "out_dir": ".",
}

METRICS_DEFAULTS = {
    "matrix_a": None,
    "matrix_b": None,
    "out": None,
}


def _resolve_config(defaults: dict, config_path: str | None, overrides: dict) -> dict:
    config = dict(defaults)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    return config


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, body: str, config_hash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"# version={__version__} config_hash={config_hash}\n" + body)


def _coerce(kind: type, value, name: str):
    """``kind(value)``; a value that does not convert is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# mimic-sweep
# ---------------------------------------------------------------------------


def _check_sweep_config(cfg: dict) -> None:
    nbars = [_coerce(float, nb, "nbars") for nb in cfg["nbars"]]
    if not nbars or any(nb <= 0 for nb in nbars):
        raise ConfigError("nbars must be a non-empty list of positive values")
    for m in cfg["samples"]:
        count = _coerce(int, m, "samples")
        if count != m or count < 1 or math.isqrt(count) ** 2 != count:
            raise ConfigError(f"sample count {m} is not a perfect square")
    if cfg["scheme"] not in {"stratified", "random", "optimized"}:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
    if _coerce(int, cfg["trials"], "trials") < 1:
        raise ConfigError("trials must be >= 1")
    if _coerce(int, cfg["cutoff"], "cutoff") < 0:
        raise ConfigError("cutoff must be >= 0")
    _coerce(int, cfg["seed"], "seed")


def cmd_mimic_sweep(cfg: dict) -> None:
    _check_sweep_config(cfg)
    rows = mimic.sweep_fidelity(
        nbars=[float(nb) for nb in cfg["nbars"]],
        sample_counts=[int(m) for m in cfg["samples"]],
        scheme=mimic.Scheme(cfg["scheme"]),
        cutoff=int(cfg["cutoff"]),
        trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
    )
    out_dir = Path(cfg["out_dir"])
    chash = _config_hash(cfg)
    _write_csv(out_dir / "sweep.csv", mimic.sweep_to_csv(rows), chash)
    fids = [r.fidelity_mean for r in rows]
    _write_json(
        out_dir / "sweep_summary.json",
        {
            "version": __version__,
            "config_hash": chash,
            "config": cfg,
            "n_rows": len(rows),
            "fidelity_min": min(fids),
            "fidelity_max": max(fids),
        },
    )


# ---------------------------------------------------------------------------
# tomo-end2end
# ---------------------------------------------------------------------------


def _check_tomo_config(cfg: dict) -> None:
    if cfg["source"] not in {"thermal", "artificial", "coherent", "vacuum"}:
        raise ConfigError(f"unknown source {cfg['source']!r}")
    nbar = _coerce(float, cfg["nbar"], "nbar")
    if cfg["source"] != "vacuum" and nbar <= 0:
        raise ConfigError("nbar must be > 0")
    if cfg["scheme"] not in {"stratified", "random"}:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
    if cfg["convention"] not in {"half", "quarter"}:
        raise ConfigError(f"unknown convention {cfg['convention']!r}")
    for key in ("phases", "samples_per_phase", "runs", "max_iterations"):
        if _coerce(int, cfg[key], key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    for key in ("cutoff", "source_cutoff"):
        if _coerce(int, cfg[key], key) < 0:
            raise ConfigError(f"{key} must be >= 0")
    for key in ("codebook_amplitudes", "codebook_phases", "seed"):
        _coerce(int, cfg[key], key)
    if cfg["gain"] is not None and _coerce(float, cfg["gain"], "gain") <= 0:
        raise ConfigError("gain must be > 0")
    _coerce(float, cfg["offset"], "offset")
    if not 0.0 < _coerce(float, cfg["dilution"], "dilution") <= 1.0:
        raise ConfigError("dilution must lie in (0, 1]")
    if _coerce(float, cfg["stop_tol"], "stop_tol") <= 0.0:
        raise ConfigError("stop_tol must be > 0")


def _build_source(cfg: dict) -> fock.FockDensityMatrix:
    cutoff = int(cfg["source_cutoff"])
    nbar = float(cfg["nbar"])
    if cfg["source"] == "thermal":
        return fock.thermal(nbar, cutoff)
    if cfg["source"] == "vacuum":
        return fock.thermal(0.0, cutoff)
    if cfg["source"] == "coherent":
        psi = fock.coherent_pure(fock.ComplexAmplitude(math.sqrt(nbar)), cutoff)
        return fock.mix([(1.0, psi)])
    codebook = mimic.build_codebook(
        nbar,
        int(cfg["codebook_amplitudes"]),
        int(cfg["codebook_phases"]),
        mimic.Scheme(cfg["scheme"]),
        seed=int(cfg["seed"]) if cfg["scheme"] == "random" else None,
    )
    return mimic.assemble(codebook, cutoff)


def _reference_state(cfg: dict) -> fock.FockDensityMatrix:
    """Theoretical state the reconstruction is judged against, at the MLE cutoff."""
    cutoff = int(cfg["cutoff"])
    nbar = float(cfg["nbar"])
    if cfg["source"] == "vacuum":
        return fock.thermal(0.0, cutoff)
    if cfg["source"] == "coherent":
        psi = fock.coherent_pure(fock.ComplexAmplitude(math.sqrt(nbar)), cutoff, tail_tol=0.05)
        return fock.mix([(1.0, psi)])
    return fock.thermal(nbar, cutoff, tail_tol=0.05)


def _reconstruct_ensemble(
    source: fock.FockDensityMatrix, cfg: dict, seed_base: int
) -> tuple[tomo.ReconstructionEnsemble, list[tomo.MleResult]]:
    grid = fock.TWO_PI * np.arange(int(cfg["phases"])) / int(cfg["phases"])
    mle_config = tomo.MleConfig(
        cutoff=int(cfg["cutoff"]),
        max_iterations=int(cfg["max_iterations"]),
        stop_tol=float(cfg["stop_tol"]),
        dilution=float(cfg["dilution"]),
    )
    results = []
    for run in range(int(cfg["runs"])):
        run_seed = seed_base + run
        if cfg["gain"] is not None:
            raw, stats = homodyne.simulate_raw(
                source, grid, int(cfg["samples_per_phase"]),
                float(cfg["gain"]), float(cfg["offset"]), run_seed,
            )
            dataset = homodyne.calibrate(raw, stats, homodyne.Convention(cfg["convention"]))
            dataset = homodyne.convert(dataset, homodyne.Convention.HALF)
        else:
            dataset = homodyne.sample(source, grid, int(cfg["samples_per_phase"]), run_seed)
        results.append(tomo.mle_reconstruct(dataset, mle_config))
    ensemble = tomo.average([r.rho for r in results])
    return ensemble, results


def cmd_tomo_end2end(cfg: dict) -> None:
    _check_tomo_config(cfg)
    source = _build_source(cfg)
    ensemble, results = _reconstruct_ensemble(source, cfg, int(cfg["seed"]))
    reference = _reference_state(cfg)

    report = metrics.compare(reference, ensemble.mean)
    report["entropy_ceiling"] = metrics.thermal_entropy(fock.mean_photon(ensemble.mean))
    extra_runs: list[tomo.MleResult] = []
    if cfg["source"] == "artificial":
        # Independent thermal reconstruction for the hat-vs-hat comparison.
        thermal_source = fock.thermal(float(cfg["nbar"]), int(cfg["source_cutoff"]))
        thermal_ensemble, extra_runs = _reconstruct_ensemble(
            thermal_source, cfg, int(cfg["seed"]) + 10_000
        )
        report["fidelity_vs_thermal_reconstruction"] = metrics.fidelity(
            thermal_ensemble.mean, ensemble.mean
        )
        report["helstrom_vs_thermal_reconstruction"] = metrics.helstrom_error(
            thermal_ensemble.mean, ensemble.mean
        )

    out_dir = Path(cfg["out_dir"])
    chash = _config_hash(cfg)
    _write_json(
        out_dir / "ensemble.json",
        {
            "version": __version__,
            "config_hash": chash,
            "config": cfg,
            "ensemble": tomo.ensemble_report(ensemble),
            "runs": [
                {
                    "converged": r.converged,
                    "iterations": r.iterations,
                    "final_log_likelihood": r.final_log_likelihood,
                }
                for r in results + extra_runs
            ],
        },
    )
    _write_json(
        out_dir / "metrics.json",
        {"version": __version__, "config_hash": chash, "metrics": report},
    )


# ---------------------------------------------------------------------------
# codebook-export
# ---------------------------------------------------------------------------


def _check_codebook_config(cfg: dict) -> None:
    if cfg["codebook_file"] is None:
        if _coerce(float, cfg["nbar"], "nbar") <= 0:
            raise ConfigError("nbar must be > 0")
        for key in ("codebook_amplitudes", "codebook_phases"):
            if _coerce(int, cfg[key], key) < 1:
                raise ConfigError("codebook needs at least one amplitude and one phase")
        if cfg["scheme"] not in {"stratified", "random"}:
            raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
        if cfg["scheme"] == "random" and cfg["seed"] is None:
            raise ConfigError("random scheme requires a seed")
    for key in ("wavelength", "tau", "extinction_db"):
        if _coerce(float, cfg[key], key) <= 0:
            raise ConfigError(f"{key} must be > 0")
    if not isinstance(cfg["ideal"], bool):
        raise ConfigError(f"ideal must be true or false, got {cfg['ideal']!r}")


def cmd_codebook_export(cfg: dict) -> None:
    _check_codebook_config(cfg)
    if cfg["codebook_file"] is not None:
        try:
            obj = json.loads(Path(cfg["codebook_file"]).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read codebook file: {exc}") from exc
        codebook = mimic.codebook_from_json(obj.get("codebook", obj))
    else:
        codebook = mimic.build_codebook(
            float(cfg["nbar"]),
            int(cfg["codebook_amplitudes"]),
            int(cfg["codebook_phases"]),
            mimic.Scheme(cfg["scheme"]),
            seed=cfg["seed"],
        )
    table = physical.codebook_to_drive(
        codebook,
        physical.ModePhysics(float(cfg["wavelength"]), float(cfg["tau"])),
        physical.ModulatorSpec(float(cfg["extinction_db"]), ideal=cfg["ideal"]),
    )
    out_dir = Path(cfg["out_dir"])
    chash = _config_hash(cfg)
    _write_json(
        out_dir / "codebook.json",
        {
            "version": __version__,
            "config_hash": chash,
            "config": cfg,
            "required_db": table.required_db,
            "codebook": mimic.codebook_to_json(codebook),
        },
    )
    _write_csv(out_dir / "drive.csv", physical.drive_to_csv(table), chash)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _load_matrix(path: str) -> fock.FockDensityMatrix:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    for key in ("matrix", "ensemble"):
        if key in obj:
            obj = obj[key]
    if "matrix" in obj:
        obj = obj["matrix"]
    return fock.density_from_json(obj)


def cmd_metrics(cfg: dict) -> None:
    if not cfg["matrix_a"] or not cfg["matrix_b"]:
        raise ConfigError("metrics needs two matrix files")
    a = _load_matrix(cfg["matrix_a"])
    b = _load_matrix(cfg["matrix_b"])
    payload = {
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "metrics": metrics.compare(a, b),
    }
    if cfg["out"]:
        _write_json(Path(cfg["out"]), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalmimic",
        description="Engineer and verify coherent-state mixtures that mimic thermal light.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("mimic-sweep", help="fidelity over (nbar, constellation size) grid")
    sweep.add_argument("--config", help="JSON config file")
    sweep.add_argument("--nbars", type=_parse_float_list, help="comma-separated mean photon numbers")
    sweep.add_argument("--samples", type=_parse_int_list, help="comma-separated constellation sizes")
    sweep.add_argument("--scheme", choices=["stratified", "random", "optimized"])
    sweep.add_argument("--cutoff", type=int)
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out-dir", dest="out_dir")

    t2e = sub.add_parser("tomo-end2end", help="sample, reconstruct, average, score")
    t2e.add_argument("--config", help="JSON config file")
    t2e.add_argument("--source", choices=["thermal", "artificial", "coherent", "vacuum"])
    t2e.add_argument("--nbar", type=float)
    t2e.add_argument("--codebook-amplitudes", dest="codebook_amplitudes", type=int)
    t2e.add_argument("--codebook-phases", dest="codebook_phases", type=int)
    t2e.add_argument("--scheme", choices=["stratified", "random"])
    t2e.add_argument("--source-cutoff", dest="source_cutoff", type=int)
    t2e.add_argument("--cutoff", type=int)
    t2e.add_argument("--phases", type=int, help="number of LO phases")
    t2e.add_argument("--samples-per-phase", dest="samples_per_phase", type=int)
    t2e.add_argument("--runs", type=int)
    t2e.add_argument("--seed", type=int)
    t2e.add_argument("--convention", choices=["half", "quarter"])
    t2e.add_argument("--gain", type=float, help="enable the raw-voltage calibration path")
    t2e.add_argument("--offset", type=float)
    t2e.add_argument("--max-iterations", dest="max_iterations", type=int)
    t2e.add_argument("--stop-tol", dest="stop_tol", type=float)
    t2e.add_argument("--dilution", type=float)
    t2e.add_argument("--out-dir", dest="out_dir")

    cbe = sub.add_parser("codebook-export", help="codebook JSON + modulator drive table")
    cbe.add_argument("--config", help="JSON config file")
    cbe.add_argument("--nbar", type=float)
    cbe.add_argument("--codebook-amplitudes", dest="codebook_amplitudes", type=int)
    cbe.add_argument("--codebook-phases", dest="codebook_phases", type=int)
    cbe.add_argument("--scheme", choices=["stratified", "random"])
    cbe.add_argument("--seed", type=int)
    cbe.add_argument("--codebook-file", dest="codebook_file", help="export an existing codebook JSON")
    cbe.add_argument("--wavelength", type=float)
    cbe.add_argument("--tau", type=float)
    cbe.add_argument("--extinction-db", dest="extinction_db", type=float)
    cbe.add_argument("--ideal", action="store_const", const=True, default=None)
    cbe.add_argument("--out-dir", dest="out_dir")

    met = sub.add_parser("metrics", help="compare two serialized density matrices")
    met.add_argument("matrix_a")
    met.add_argument("matrix_b")
    met.add_argument("--out", help="write the report here instead of stdout")

    return parser


_COMMANDS = {
    "mimic-sweep": (SWEEP_DEFAULTS, cmd_mimic_sweep),
    "tomo-end2end": (TOMO_DEFAULTS, cmd_tomo_end2end),
    "codebook-export": (CODEBOOK_DEFAULTS, cmd_codebook_export),
    "metrics": (METRICS_DEFAULTS, cmd_metrics),
}


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    defaults, runner = _COMMANDS[command]
    try:
        config = _resolve_config(defaults, config_path, args)
        runner(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except physical.ExtinctionRangeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
