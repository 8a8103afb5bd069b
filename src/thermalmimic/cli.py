"""Reproducible experiment runner for the thermal-mimicry toolkit.

Subcommands
-----------
mimic-sweep      fidelity of mimicked states over a (nbar, constellation size) grid
tomo-end2end     source state -> homodyne sampling -> MLE x runs -> ensemble + metrics
codebook-export  codebook JSON plus modulator drive table with feasibility check
metrics          metric report between two serialized density matrices

Each command's knobs are the fields of one frozen dataclass, whose name, type
and default make the long-form flag and the config-file key. The config is
resolved from the defaults, an optional JSON config file, and flag overrides
(in that order); each value must have its field's type, and the dataclass
checks ranges. Outputs are deterministic and stamped with the toolkit version
and a hash of the resolved config. Exit codes: 0 ok, 2 config error, 3
numerical failure, 4 physical infeasibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, fock, homodyne, metrics, mimic, physical, tomo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    """Fidelity over a (nbar, constellation size) grid.

    Each sample count M is a perfect square, the constellation sqrt(M) x sqrt(M).
    """

    nbars: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    samples: tuple[int, ...] = (4, 16, 36, 64, 100)
    scheme: Literal["stratified", "random", "optimized"] = "stratified"
    cutoff: int = 30
    trials: int = 1
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not self.nbars or any(nb <= 0 for nb in self.nbars):
            raise ConfigError("nbars must be a non-empty list of positive values")
        for m in self.samples:
            if m < 1 or math.isqrt(m) ** 2 != m:
                raise ConfigError(f"sample count {m} is not a perfect square")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.cutoff < 0:
            raise ConfigError("cutoff must be >= 0")


@dataclass(frozen=True)
class TomoConfig:
    """Sample, reconstruct, average, score.

    ``phases`` LO phases x ``samples_per_phase`` quadratures per run. A
    ``gain`` enables the raw-voltage calibration path, under ``convention``.
    ``cutoff``, ``max_iterations``, ``stop_tol`` and ``dilution`` are the MLE's.
    """

    source: Literal["thermal", "artificial", "coherent", "vacuum"] = "thermal"
    nbar: float = 1.35
    codebook_amplitudes: int = 8
    codebook_phases: int = 8
    scheme: Literal["stratified", "random"] = "stratified"
    source_cutoff: int = 30
    cutoff: int = 12
    phases: int = 50
    samples_per_phase: int = 40
    runs: int = 10
    seed: int = 1
    convention: Literal["half", "quarter"] = "half"
    gain: float | None = None
    offset: float = 0.0
    max_iterations: int = 2000
    stop_tol: float = 1e-7
    dilution: float = 0.5
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.source != "vacuum" and self.nbar <= 0:
            raise ConfigError("nbar must be > 0")
        for key in ("phases", "samples_per_phase", "runs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.source_cutoff < 0:
            raise ConfigError("source_cutoff must be >= 0")
        if self.gain is not None and self.gain <= 0:
            raise ConfigError("gain must be > 0")
        try:
            self.mle  # tomo.MleConfig checks the MLE knobs
            if self.source == "artificial":
                mimic.check_codebook_args(*self.codebook_args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def mle(self) -> tomo.MleConfig:
        return tomo.MleConfig(self.cutoff, self.max_iterations, self.stop_tol, self.dilution)

    @property
    def codebook_args(self) -> tuple:
        """``build_codebook``'s arguments for the artificial source."""
        seed = self.seed if self.scheme == "random" else None
        return self.nbar, self.codebook_amplitudes, self.codebook_phases, self.scheme, seed


@dataclass(frozen=True)
class CodebookConfig:
    """Codebook JSON + modulator drive table.

    A ``codebook_file`` exports an existing codebook JSON in place of building
    one from ``nbar``, ``codebook_amplitudes``, ``codebook_phases``, ``scheme``
    and ``seed``.
    """

    nbar: float = 1.5
    codebook_amplitudes: int = 8
    codebook_phases: int = 8
    scheme: Literal["stratified", "random"] = "stratified"
    seed: int | None = None
    codebook_file: str | None = None
    wavelength: float = 1560.625e-9
    tau: float = 13e-9
    extinction_db: float = 25.0
    ideal: bool = False
    out_dir: str = "."

    def __post_init__(self) -> None:
        try:
            self.mode, self.modulator  # the physical types check their own knobs
            if self.codebook_file is None:
                mimic.check_codebook_args(*self.codebook_args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def codebook_args(self) -> tuple:
        """``build_codebook``'s arguments when no ``codebook_file`` is given."""
        return self.nbar, self.codebook_amplitudes, self.codebook_phases, self.scheme, self.seed

    @property
    def mode(self) -> physical.ModePhysics:
        return physical.ModePhysics(self.wavelength, self.tau)

    @property
    def modulator(self) -> physical.ModulatorSpec:
        return physical.ModulatorSpec(self.extinction_db, ideal=self.ideal)


@dataclass(frozen=True)
class MetricsConfig:
    """Compare two serialized density matrices.

    Each file holds a bare, reconstruction- or ensemble-wrapped matrix JSON.
    ``out`` writes the report there instead of stdout.
    """

    matrix_a: str
    matrix_b: str
    out: str | None = None


def _typed(key: str, value, kind):
    """``value`` as a ``kind`` field takes it; a value of another JSON type is a
    config error. An int field takes no bool or float, a float field takes a
    finite int or float, a list field a list, an optional field also null."""
    args = get_args(kind)
    if get_origin(kind) is Literal:
        if value in args:
            return value
        raise ConfigError(f"{key} must be one of {', '.join(args)}; got {value!r}")
    if type(None) in args:
        return None if value is None else _typed(key, value, args[0])
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_typed(key, item, args[0]) for item in value)
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # false for nan, inf and ints past float range
            return float(value)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def _load_json(path: str, what: str, parse=lambda obj: obj):
    """``parse`` of the JSON held in ``path``. A file that cannot be read, or
    whose layout or values ``parse`` rejects, is a config error."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc!r}") from exc


def _resolve_config(cls: type, config_path: str | None, overrides: dict):
    """``cls`` from its defaults, then the JSON config file, then the flags
    given (those not None), each value checked against its field's type."""
    values = {} if config_path is None else _load_json(config_path, "config file")
    if not isinstance(values, dict):
        raise ConfigError(f"config file {config_path} must hold a JSON object")
    kinds = get_type_hints(cls)
    unknown = sorted(set(values) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {**values, **{k: v for k, v in overrides.items() if v is not None}}
    return cls(**{key: _typed(key, value, kinds[key]) for key, value in values.items()})


def _config_hash(cfg) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, body: str, config_hash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"# version={__version__} config_hash={config_hash}\n" + body)


# ---------------------------------------------------------------------------
# mimic-sweep
# ---------------------------------------------------------------------------


def cmd_mimic_sweep(cfg: SweepConfig) -> None:
    rows = mimic.sweep_fidelity(
        cfg.nbars, cfg.samples, mimic.Scheme(cfg.scheme), cfg.cutoff, cfg.trials, cfg.seed
    )
    out_dir = Path(cfg.out_dir)
    chash = _config_hash(cfg)
    _write_csv(out_dir / "sweep.csv", mimic.sweep_to_csv(rows), chash)
    fids = [r.fidelity_mean for r in rows]
    _write_json(
        out_dir / "sweep_summary.json",
        {
            "version": __version__,
            "config_hash": chash,
            "config": asdict(cfg),
            "n_rows": len(rows),
            "fidelity_min": min(fids),
            "fidelity_max": max(fids),
        },
    )


# ---------------------------------------------------------------------------
# tomo-end2end
# ---------------------------------------------------------------------------


def _model_state(source: str, nbar: float, cutoff: int, tail_tol: float) -> fock.FockDensityMatrix:
    """Vacuum, coherent or (for any other source) thermal state of mean photon number ``nbar``."""
    if source == "coherent":
        return fock.mix([1.0], fock.coherent_states([math.sqrt(nbar)], [0.0], cutoff, tail_tol))
    return fock.thermal(0.0 if source == "vacuum" else nbar, cutoff, tail_tol)


def _reconstruct_ensemble(
    source: fock.FockDensityMatrix, cfg: TomoConfig, seed_base: int
) -> tuple[tomo.ReconstructionEnsemble, list[tomo.MleResult]]:
    grid = fock.TWO_PI * np.arange(cfg.phases) / cfg.phases
    mle_config = cfg.mle
    results = []
    for run in range(cfg.runs):
        run_seed = seed_base + run
        if cfg.gain is not None:
            raw, stats = homodyne.simulate_raw(
                source, grid, cfg.samples_per_phase, cfg.gain, cfg.offset, run_seed
            )
            dataset = homodyne.calibrate(raw, stats, homodyne.Convention(cfg.convention))
            dataset = homodyne.convert(dataset, homodyne.Convention.HALF)
        else:
            dataset = homodyne.sample(source, grid, cfg.samples_per_phase, run_seed)
        results.append(tomo.mle_reconstruct(dataset, mle_config))
    ensemble = tomo.average([r.rho for r in results])
    return ensemble, results


def cmd_tomo_end2end(cfg: TomoConfig) -> None:
    if cfg.source == "artificial":
        source = mimic.assemble(mimic.build_codebook(*cfg.codebook_args), cfg.source_cutoff)
    else:
        source = _model_state(cfg.source, cfg.nbar, cfg.source_cutoff, fock.DEFAULT_TAIL_TOL)
    ensemble, results = _reconstruct_ensemble(source, cfg, cfg.seed)
    # the theoretical state the reconstruction is judged against, at the MLE cutoff
    reference = _model_state(cfg.source, cfg.nbar, cfg.cutoff, tail_tol=0.05)

    report = metrics.compare(reference, ensemble.mean)
    report["entropy_ceiling"] = metrics.thermal_entropy(fock.mean_photon(ensemble.mean))
    extra_runs: list[tomo.MleResult] = []
    if cfg.source == "artificial":
        # Independent thermal reconstruction for the hat-vs-hat comparison.
        thermal_source = fock.thermal(cfg.nbar, cfg.source_cutoff)
        thermal_ensemble, extra_runs = _reconstruct_ensemble(thermal_source, cfg, cfg.seed + 10_000)
        report["fidelity_vs_thermal_reconstruction"] = metrics.fidelity(
            thermal_ensemble.mean, ensemble.mean
        )
        report["helstrom_vs_thermal_reconstruction"] = metrics.helstrom_error(
            thermal_ensemble.mean, ensemble.mean
        )

    out_dir = Path(cfg.out_dir)
    chash = _config_hash(cfg)
    _write_json(
        out_dir / "ensemble.json",
        {
            "version": __version__,
            "config_hash": chash,
            "config": asdict(cfg),
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


def _parse_codebook(obj) -> mimic.Codebook:
    """A bare codebook, or one wrapped as in ``codebook.json``."""
    return mimic.codebook_from_json(obj.get("codebook", obj))


def cmd_codebook_export(cfg: CodebookConfig) -> None:
    if cfg.codebook_file is not None:
        codebook = _load_json(cfg.codebook_file, "codebook file", _parse_codebook)
    else:
        codebook = mimic.build_codebook(*cfg.codebook_args)
    table = physical.codebook_to_drive(codebook, cfg.mode, cfg.modulator)
    out_dir = Path(cfg.out_dir)
    chash = _config_hash(cfg)
    _write_json(
        out_dir / "codebook.json",
        {
            "version": __version__,
            "config_hash": chash,
            "config": asdict(cfg),
            "required_db": table.required_db,
            "codebook": mimic.codebook_to_json(codebook),
        },
    )
    _write_csv(out_dir / "drive.csv", physical.drive_to_csv(table), chash)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _parse_matrix(obj) -> fock.FockDensityMatrix:
    """A bare density matrix, or one wrapped as a reconstruction
    (``{"matrix": ...}``) or as in ``ensemble.json`` (``{"ensemble": {"matrix": ...}}``)."""
    obj = obj.get("ensemble", obj)
    return fock.density_from_json(obj.get("matrix", obj))


def cmd_metrics(cfg: MetricsConfig) -> None:
    a = _load_json(cfg.matrix_a, "matrix file", _parse_matrix)
    b = _load_json(cfg.matrix_b, "matrix file", _parse_matrix)
    payload = {
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "metrics": metrics.compare(a, b),
    }
    if cfg.out:
        _write_json(Path(cfg.out), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "mimic-sweep": (SweepConfig, cmd_mimic_sweep),
    "tomo-end2end": (TomoConfig, cmd_tomo_end2end),
    "codebook-export": (CodebookConfig, cmd_codebook_export),
    "metrics": (MetricsConfig, cmd_metrics),
}


def _flag_options(kind) -> dict:
    """``add_argument`` options for a field of type ``kind``; every flag
    defaults to None, which leaves the field as the config file or default has it."""
    args = get_args(kind)
    if type(None) in args:
        return _flag_options(args[0])
    if get_origin(kind) is Literal:
        return {"choices": args}
    if kind is bool:
        return {"action": "store_const", "const": True}
    if get_origin(kind) is tuple:
        item = args[0]

        def comma_list(text: str) -> tuple:
            return tuple(item(tok) for tok in text.split(",") if tok.strip())

        return {"type": comma_list}
    return {"type": kind}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalmimic",
        description="Engineer and verify coherent-state mixtures that mimic thermal light.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (cls, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=cls.__doc__.splitlines()[0], description=cls.__doc__)
        if cls is not MetricsConfig:
            cmd.add_argument("--config", help="JSON config file")
        kinds = get_type_hints(cls)
        for f in fields(cls):
            if f.default is MISSING:
                cmd.add_argument(f.name)
            else:
                flag = "--" + f.name.replace("_", "-")
                cmd.add_argument(flag, dest=f.name, **_flag_options(kinds[f.name]))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    cls, runner = _COMMANDS[args.pop("command")]
    config_path = args.pop("config", None)
    try:
        runner(_resolve_config(cls, config_path, args))
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
