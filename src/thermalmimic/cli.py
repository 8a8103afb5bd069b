"""Reproducible experiment runner for the thermal-mimicry toolkit.

Subcommands
-----------
mimic-sweep      fidelity of mimicked states over a (nbar, constellation size) grid
tomo-end2end     source state -> homodyne sampling -> MLE x runs -> ensemble + metrics
codebook-export  codebook JSON plus modulator drive table with feasibility check
metrics          metric report between two serialized density matrices

Each command's knobs are the fields of one frozen dataclass, whose name, type
and default make the long-form flag and the config-file key. A command's
config extends the library configs it feeds (``tomo.MleConfig``,
``physical.Transmitter``, ``mimic.CodebookSpec``, ``mimic.SweepSpec``), so a
knob of a library type is declared and checked there alone. The config is
resolved from the defaults, an optional JSON config file, and flag overrides
(in that order); each value must have its field's type, an int field's a
non-negative int, and the dataclass checks the other ranges. Outputs are
deterministic and stamped with the toolkit version and a hash of the
resolved config. Exit codes: 0 ok, 2 config error, 3 numerical failure, 4
physical infeasibility. Any ``ValueError`` raised while a config is
constructed exits 2; ``physical.ExtinctionRangeError`` exits 4; any other
``ValueError`` exits 3.

This module owns every file layout: it writes each output and parses each
input file, so the library modules compute on value types only. An input
file's values are typed by the rule a config file's are; an input that
cannot be read or parsed, or an output path that cannot be written, exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache
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
class SweepConfig(mimic.SweepSpec):
    """Fidelity over a (nbar, constellation size) grid.

    Each sample count M is a perfect square, the constellation sqrt(M) x sqrt(M).
    The config is the ``mimic.SweepSpec`` the sweep runs, so every knob but
    ``out_dir`` is inherited, and checked there.
    """

    out_dir: str = "."


@dataclass(frozen=True)
class TomoConfig(tomo.MleConfig, mimic.CodebookSpec):
    """Sample, reconstruct, average, score.

    ``phases`` LO phases x ``samples_per_phase`` quadratures per run. A
    ``gain`` enables the raw-voltage calibration path. Its ``convention``,
    ``gain`` and ``offset`` change no reconstruction beyond rounding, since
    ``homodyne.calibrate`` removes the vacuum trace's mean and spread; the path
    is still not a no-op, as the noise of those two estimates reaches every record.
    The config is the ``tomo.MleConfig`` each run is reconstructed with, so
    its ``cutoff``, ``max_iterations`` and ``stop_tol`` (the optimality gap,
    in nats, at which a run stops) are inherited, and checked there;
    ``tomo.MleConfig`` says why the default gap suffices. It is also the
    ``mimic.CodebookSpec`` the artificial source is built from, checked there
    for that source; ``seed`` is also the root ``SeedSequence`` that every
    run's records are spawned from.
    """

    source: Literal["thermal", "artificial", "coherent", "vacuum"] = "thermal"
    seed: int = 1
    source_cutoff: int = fock.DEFAULT_CUTOFF
    phases: int = 50
    samples_per_phase: int = 40
    runs: int = 10
    convention: Literal["half", "quarter"] = "half"
    gain: float | None = None
    offset: float = 0.0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.source != "vacuum" and not (math.isfinite(self.nbar) and self.nbar > 0):
            raise ConfigError("nbar must be > 0")
        for key in ("phases", "samples_per_phase", "runs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.gain is not None and not (math.isfinite(self.gain) and self.gain > 0):
            raise ConfigError("gain must be > 0")
        if not math.isfinite(self.offset):
            raise ConfigError(f"offset must be finite, got {self.offset}")
        if self.gain is not None and self.phases * self.samples_per_phase < 2:
            raise ConfigError("the raw path's vacuum trace needs phases * samples_per_phase >= 2")
        tomo.MleConfig.__post_init__(self)
        if self.source == "artificial":
            mimic.CodebookSpec.__post_init__(self)


@dataclass(frozen=True)
class CodebookConfig(physical.Transmitter, mimic.CodebookSpec):
    """Codebook JSON + modulator drive table.

    A ``codebook_file`` exports an existing codebook JSON in place of building
    one from ``nbar``, ``codebook_amplitudes``, ``codebook_phases``, ``scheme``
    and ``seed``. The config is the ``mimic.CodebookSpec`` it builds from,
    and the ``physical.Transmitter`` that drives the codebook, so its
    ``wavelength``, ``tau``, ``extinction_db`` and ``ideal`` are inherited,
    and checked there, as are the codebook knobs when no file is given.
    """

    nbar: float = 1.5
    codebook_file: str | None = None
    out_dir: str = "."

    def __post_init__(self) -> None:
        physical.Transmitter.__post_init__(self)
        if self.codebook_file is None:
            mimic.CodebookSpec.__post_init__(self)


@dataclass(frozen=True)
class MetricsConfig:
    """Compare two serialized density matrices.

    Each file holds a density-matrix JSON: bare, wrapped as ``{"matrix": ...}``
    (the ``ensemble`` record of an ``ensemble.json``), or a whole ``ensemble.json``.
    ``out`` writes the report there instead of stdout.
    """

    matrix_a: str
    matrix_b: str
    out: str | None = None


def _typed(key: str, value, kind):
    """``value`` as a ``kind`` field takes it; a value of another JSON type is a
    config error. An int field takes a non-negative int, and no bool or float:
    every int knob is a count, a cutoff or a seed. A float field takes a
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
        if kind is int and value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
        return value
    raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def _load_json(path: str, what: str, parse=lambda obj: obj):
    """``parse`` of the JSON held in ``path``. A file that cannot be read, or
    whose layout or values ``parse`` rejects, is a config error."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError, AttributeError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc!r}") from exc


@cache  # string annotations evaluated once per config class
def _field_kinds(cls: type) -> dict:
    """Each field name of the config class ``cls`` with its evaluated type."""
    return get_type_hints(cls)


def _resolve_config(cls: type, config_path: str | None, overrides: dict):
    """``cls`` from its defaults, then the JSON config file, then the flags
    given (those not None), each value checked against its field's type. A
    ``ValueError`` raised while ``cls`` is constructed, by its own checks or
    those of the library config it extends, is a config error."""
    values = {} if config_path is None else _load_json(config_path, "config file")
    if not isinstance(values, dict):
        raise ConfigError(f"config file {config_path} must hold a JSON object")
    kinds = _field_kinds(cls)
    unknown = sorted(set(values) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {**values, **{k: v for k, v in overrides.items() if v is not None}}
    typed = {key: _typed(key, value, kinds[key]) for key, value in values.items()}
    try:
        return cls(**typed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _stamp(cfg) -> dict:
    """The toolkit version and a hash of the resolved config, which every output carries."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return {"version": __version__, "config_hash": digest}


def _write(files: dict[Path, str]) -> None:
    """Each text into its path, directories made first, all files or none: each
    text goes to a temporary file beside its target, and the temporaries are
    renamed into place once every write has succeeded. Every output goes
    through here; a path that cannot be written, or is a directory, is a
    config error that leaves no file behind."""
    staged = {}
    try:
        for path, text in files.items():
            if path.is_dir():
                raise IsADirectoryError("is a directory")
            path.parent.mkdir(parents=True, exist_ok=True)
            staged[path] = path.with_name(f".{path.name}.tmp")
            staged[path].write_text(text)
        for path, temporary in staged.items():
            temporary.replace(path)
    except OSError as exc:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc!r}") from exc


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(cfg, columns: tuple[str, ...], rows) -> str:
    """The stamp as a comment line, the ``columns`` header, then one line per
    row: a float cell as ``.17g``, any other cell with ``str``."""
    header = " ".join(f"{key}={value}" for key, value in _stamp(cfg).items())
    lines = [f"# {header}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mimic-sweep
# ---------------------------------------------------------------------------


def cmd_mimic_sweep(cfg: SweepConfig) -> None:
    mean, std = mimic.sweep_fidelity(cfg)
    out_dir = Path(cfg.out_dir)
    rows = (
        (nbar, m, cfg.scheme, mu, sigma)  # one row per cell, nbar-major
        for nbar, means, stds in zip(cfg.nbars, mean.tolist(), std.tolist())
        for m, mu, sigma in zip(cfg.samples, means, stds)
    )
    columns = ("nbar", "M", "scheme", "fidelity_mean", "fidelity_std")
    summary = {
        **_stamp(cfg),
        "config": asdict(cfg),
        "n_rows": mean.size,
        "fidelity_min": float(mean.min()),
        "fidelity_max": float(mean.max()),
    }
    _write({out_dir / "sweep.csv": _csv_text(cfg, columns, rows),
            out_dir / "sweep_summary.json": _json_text(summary)})


# ---------------------------------------------------------------------------
# tomo-end2end
# ---------------------------------------------------------------------------


def _model_state(source: str, nbar: float, cutoff: int, tail_tol: float) -> fock.FockDensityMatrix:
    """Vacuum, coherent or (for any other source) thermal state of mean photon number ``nbar``."""
    if source == "coherent":
        return fock.mix([1.0], fock.coherent_states([math.sqrt(nbar)], [0.0], cutoff), tail_tol)
    return fock.thermal(0.0 if source == "vacuum" else nbar, cutoff, tail_tol)


def _density_json(rho: fock.FockDensityMatrix) -> dict:
    """A density matrix's JSON layout; :func:`_parse_matrix` reads it back bit for bit."""
    return {
        "cutoff": rho.cutoff,
        "entries_real": rho.entries.real.tolist(),
        "entries_imag": rho.entries.imag.tolist(),
    }


def _reconstruct_ensemble(source: fock.FockDensityMatrix, cfg: TomoConfig,
                          branch: np.random.SeedSequence) -> tomo.Ensemble:
    """:func:`tomo.reconstruct_ensemble` of ``cfg.runs`` runs of ``source``, run r seeded by
    child r of ``branch``. All runs' records are drawn in one sampling pass (with
    ``cfg.gain``, one raw acquisition pass then one calibration per run) before any fit."""
    grid = fock.TWO_PI * np.arange(cfg.phases) / cfg.phases
    seeds = branch.spawn(cfg.runs)
    if cfg.gain is not None:
        raws = homodyne.simulate_raw(source, grid, cfg.samples_per_phase, cfg.gain, cfg.offset,
                                     seeds)
        datasets = [homodyne.calibrate(raw, cfg.convention) for raw in raws]
    else:
        datasets = homodyne.sample(source, grid, cfg.samples_per_phase, seeds)
    return tomo.reconstruct_ensemble(datasets, cfg)


def cmd_tomo_end2end(cfg: TomoConfig) -> None:
    # Every state is built before any sampling, so a cutoff too small for
    # nbar fails before the reconstructions rather than after them.
    if cfg.source == "artificial":
        source = mimic.assemble(mimic.build_codebook(cfg), cfg.source_cutoff)
        # the thermal source of the independent hat-vs-hat reconstruction
        thermal_source = fock.thermal(cfg.nbar, cfg.source_cutoff)
    else:
        source = _model_state(cfg.source, cfg.nbar, cfg.source_cutoff, fock.DEFAULT_TAIL_TOL)
    # the theoretical state the reconstruction is judged against, at the MLE cutoff
    reference = _model_state(cfg.source, cfg.nbar, cfg.cutoff, tail_tol=0.05)
    # one seeding tree: branch 0 seeds the ensemble's runs, branch 1 the
    # hat-vs-hat thermal ensemble's, and a raw run's vacuum is its run's child 0
    branches = np.random.SeedSequence(cfg.seed).spawn(2)
    hat = _reconstruct_ensemble(source, cfg, branches[0])
    mean, results = hat.mean, hat.runs
    mean_photon = fock.mean_photon(mean)

    report = metrics.compare(reference, mean)
    report["entropy_ceiling"] = metrics.thermal_entropy(mean_photon)
    if cfg.source == "artificial":
        thermal = _reconstruct_ensemble(thermal_source, cfg, branches[1])
        results += thermal.runs
        report["fidelity_vs_thermal_reconstruction"] = metrics.fidelity(thermal.mean, mean)
        report["helstrom_vs_thermal_reconstruction"] = metrics.helstrom_error(thermal.mean, mean)

    out_dir = Path(cfg.out_dir)
    ensemble = {
        "cutoff": mean.cutoff,
        "matrix": _density_json(mean),
        "elementwise_std": hat.spread.tolist(),
        "n_runs": cfg.runs,
        "mean_photon": mean_photon,
    }
    run_keys = ("converged", "iterations", "final_log_likelihood", "optimality_gap")
    runs = [{key: getattr(r, key) for key in run_keys} for r in results]  # hat-vs-hat runs last
    _write({
        out_dir / "ensemble.json": _json_text(
            {**_stamp(cfg), "config": asdict(cfg), "ensemble": ensemble, "runs": runs}),
        out_dir / "metrics.json": _json_text({**_stamp(cfg), "metrics": report}),
    })


# ---------------------------------------------------------------------------
# codebook-export
# ---------------------------------------------------------------------------


def _parse_codebook(obj) -> mimic.Codebook:
    """A bare codebook, or one wrapped as in ``codebook.json``."""
    obj = obj.get("codebook", obj)
    return mimic.Codebook(
        nbar_target=_typed("nbar_target", obj["nbar_target"], float),
        amplitudes=_typed("amplitudes", obj["amplitudes"], tuple[float, ...]),
        phases=_typed("phases", obj["phases"], tuple[float, ...]),
        weights=_typed("weights", obj["weights"], tuple[tuple[float, ...], ...]),
        scheme=mimic.Scheme(obj["scheme"]),
        seed=_typed("seed", obj.get("seed"), int | None),
    )


def cmd_codebook_export(cfg: CodebookConfig) -> None:
    if cfg.codebook_file is not None:
        codebook = _load_json(cfg.codebook_file, "codebook file", _parse_codebook)
    else:
        codebook = mimic.build_codebook(cfg)
    table = physical.codebook_to_drive(codebook, cfg)
    out_dir = Path(cfg.out_dir)
    payload = {
        **_stamp(cfg),
        "config": asdict(cfg),
        "required_db": table.required_db,
        "codebook": {
            "nbar_target": codebook.nbar_target,
            "amplitudes": codebook.amplitudes.tolist(),
            "phases": codebook.phases.tolist(),
            "weights": codebook.weights.tolist(),
            "scheme": codebook.scheme.value,
            "seed": codebook.seed,
        },
    }
    columns = ("alpha_sq", "power_w", "intensity_level", "phase_rad")  # DriveTable's fields
    symbols = enumerate(zip(*(getattr(table, c).tolist() for c in columns)))  # row i is symbol i
    rows = ((i, *row) for i, row in symbols)
    _write({out_dir / "codebook.json": _json_text(payload),
            out_dir / "drive.csv": _csv_text(cfg, ("index", *columns), rows)})


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _parse_matrix(obj) -> fock.FockDensityMatrix:
    """A bare density matrix as :func:`_density_json` writes it, or one wrapped
    as ``{"matrix": ...}`` (the ``ensemble`` record of ``ensemble.json``) or as
    in ``ensemble.json`` (``{"ensemble": {"matrix": ...}}``)."""
    obj = obj.get("ensemble", obj)
    obj = obj.get("matrix", obj)
    real, imag = (np.array(_typed(key, obj[key], tuple[tuple[float, ...], ...]))
                  for key in ("entries_real", "entries_imag"))
    return fock.FockDensityMatrix(_typed("cutoff", obj["cutoff"], int), real + 1j * imag)


def cmd_metrics(cfg: MetricsConfig) -> None:
    a = _load_json(cfg.matrix_a, "matrix file", _parse_matrix)
    b = _load_json(cfg.matrix_b, "matrix file", _parse_matrix)
    if a.cutoff != b.cutoff:
        raise ConfigError(f"cutoff {a.cutoff} of {cfg.matrix_a} != {b.cutoff} of {cfg.matrix_b}")
    payload = {**_stamp(cfg), "metrics": metrics.compare(a, b)}
    if cfg.out:
        _write({Path(cfg.out): _json_text(payload)})
    else:
        print(_json_text(payload), end="")


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

        def comma_list(text: str) -> tuple:  # "" is the empty list; an empty item is malformed
            return tuple(item(tok) for tok in text.split(",")) if text.strip() else ()

        return {"type": comma_list}
    return {"type": kind}


@cache  # one parser per process
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
        kinds = _field_kinds(cls)
        for f in fields(cls):
            if f.default is MISSING:
                cmd.add_argument(f.name)
            else:
                flag = "--" + f.name.replace("_", "-")
                cmd.add_argument(flag, dest=f.name, **_flag_options(kinds[f.name]))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    cls, runner = _COMMANDS[command]
    config_path = args.pop("config", None)
    try:
        runner(_resolve_config(cls, config_path, args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: the {command} request does not fit in memory: {exc}",
              file=sys.stderr)
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
