import json
import math
from dataclasses import MISSING, fields
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalmimic import __version__, fock
from thermalmimic.cli import (
    CodebookConfig,
    ConfigError,
    MetricsConfig,
    SweepConfig,
    TomoConfig,
    _resolve_config,
    main,
)
from thermalmimic.mimic import build_codebook, codebook_from_json, codebook_to_json


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# mimic-sweep
# ---------------------------------------------------------------------------


def test_sweep_single_cell_writes_one_row(tmp_path):
    assert main(["mimic-sweep", "--nbars", "1.0", "--samples", "64",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == "nbar,M,scheme,fidelity_mean,fidelity_std"
    assert len(lines) == 3
    fidelity = float(lines[2].split(",")[3])
    assert fidelity >= 0.99

    summary = read_json(tmp_path / "sweep_summary.json")
    assert summary["version"] == __version__
    assert summary["config_hash"]
    assert summary["n_rows"] == 1


def test_sweep_reruns_are_byte_identical(tmp_path):
    args = ["mimic-sweep", "--nbars", "0.5,1.0", "--samples", "4,16",
            "--seed", "3", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_sweep_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nbars": [1.0], "bogus_knob": 3}))
    assert main(["mimic-sweep", "--config", str(cfg)]) == 2


def test_sweep_rejects_non_square_sample_count(tmp_path):
    assert main(["mimic-sweep", "--samples", "50", "--out-dir", str(tmp_path)]) == 2


def test_sweep_accepts_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nbars": [1.0], "samples": [4], "seed": 9}))
    out = tmp_path / "out"
    assert main(["mimic-sweep", "--config", str(cfg), "--samples", "16",
                 "--out-dir", str(out)]) == 0
    summary = read_json(out / "sweep_summary.json")
    assert summary["config"]["samples"] == [16]
    assert summary["config"]["seed"] == 9


def test_sweep_default_grid_saturates_at_hundred_samples(tmp_path):
    assert main(["mimic-sweep", "--out-dir", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "sweep.csv").read_text().strip().splitlines()[2:]]
    assert len(rows) == 20  # 4 mean photon numbers x 5 constellation sizes
    at_hundred = [float(r[3]) for r in rows if r[1] == "100"]
    assert len(at_hundred) == 4
    assert all(f >= 0.99 for f in at_hundred)


# ---------------------------------------------------------------------------
# tomo-end2end
# ---------------------------------------------------------------------------


def test_tomo_thermal_defaults_reproduce_high_fidelity(tmp_path):
    # full default pipeline (50 phases x 40 samples, 10 runs, nbar 1.35);
    # 0.97 is the documented floor absorbing seed-to-seed spread
    assert main(["tomo-end2end", "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "metrics.json")["metrics"]
    assert report["fidelity"] >= 0.97
    assert abs(report["mean_photon_b"] - 1.35) <= 0.1
    assert report["entropy_ceiling"] == pytest.approx(2.31, abs=0.05)


def test_tomo_vacuum_single_run(tmp_path):
    assert main(["tomo-end2end", "--source", "vacuum", "--runs", "1", "--seed", "4",
                 "--cutoff", "8", "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "metrics.json")
    assert report["version"] == __version__
    assert report["metrics"]["fidelity"] >= 0.99
    ensemble = read_json(tmp_path / "ensemble.json")
    assert ensemble["ensemble"]["n_runs"] == 1
    assert ensemble["runs"][0]["converged"] is True
    matrix = ensemble["ensemble"]["matrix"]
    assert len(matrix["entries_real"]) == 9


def test_tomo_artificial_reports_cross_reconstruction_metrics(tmp_path):
    assert main(["tomo-end2end", "--source", "artificial", "--nbar", "1.0",
                 "--codebook-amplitudes", "4", "--codebook-phases", "4",
                 "--phases", "10", "--samples-per-phase", "10", "--runs", "2",
                 "--cutoff", "6", "--seed", "2", "--out-dir", str(tmp_path)]) == 0
    metrics = read_json(tmp_path / "metrics.json")["metrics"]
    assert "fidelity_vs_thermal_reconstruction" in metrics
    assert "helstrom_vs_thermal_reconstruction" in metrics
    assert read_json(tmp_path / "ensemble.json")["runs"]  # both pipelines recorded


def test_tomo_coherent_source(tmp_path):
    assert main(["tomo-end2end", "--source", "coherent", "--nbar", "1.0", "--runs", "1",
                 "--seed", "4", "--cutoff", "8", "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "metrics.json")["metrics"]
    assert report["fidelity"] >= 0.99
    # reference is pure up to the Poisson mass truncated at cutoff 8 (~1e-6)
    assert report["entropy_a"] == pytest.approx(0.0, abs=1e-5)


def test_tomo_calibrated_quarter_path(tmp_path):
    assert main(["tomo-end2end", "--source", "vacuum", "--runs", "1", "--seed", "4",
                 "--cutoff", "4", "--phases", "10", "--samples-per-phase", "40",
                 "--gain", "2.5", "--offset", "0.3", "--convention", "quarter",
                 "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "metrics.json")
    assert report["metrics"]["fidelity"] >= 0.95


def test_tomo_truncation_failure_exits_numeric(tmp_path):
    assert main(["tomo-end2end", "--source", "thermal", "--nbar", "5.0",
                 "--source-cutoff", "10", "--out-dir", str(tmp_path)]) == 3


def test_tomo_bad_source_exits_config(tmp_path):
    assert main(["tomo-end2end", "--source", "thermal", "--nbar", "-1.0",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["tomo-end2end", "--source", "artificial", "--codebook-amplitudes", "0"],
        ["tomo-end2end", "--source", "artificial", "--codebook-phases", "0"],
        ["codebook-export", "--codebook-amplitudes", "0"],
    ],
)
def test_empty_codebook_exits_config(tmp_path, capsys, argv):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "at least one amplitude and one phase" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tomo-end2end", "--source", "artificial", "--codebook-amplitudes", "1099511627776"],
        ["codebook-export", "--codebook-amplitudes", "1099511627776"],
    ],
)
def test_codebook_too_large_to_allocate_exits_config(tmp_path, capsys, argv):
    # 2^40 amplitudes need 8 TiB in the first array built from them, which
    # numpy refuses before allocating anything.
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"the {argv[0]} request does not fit in memory" in err
    assert "1099511627776" in err
    assert not out.exists()


def test_tomo_non_numeric_config_value_exits_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phases": "many"}))
    assert main(["tomo-end2end", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "phases" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# codebook-export
# ---------------------------------------------------------------------------


def test_codebook_export_round_trip(tmp_path):
    assert main(["codebook-export", "--nbar", "1.5", "--codebook-amplitudes", "8",
                 "--codebook-phases", "8", "--out-dir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "codebook.json")
    assert payload["version"] == __version__
    assert payload["required_db"] < 25.0
    reloaded = codebook_from_json(payload["codebook"])
    original = build_codebook(1.5, 8, 8)
    assert np.array_equal(reloaded.amplitudes, original.amplitudes)
    assert np.array_equal(reloaded.weights, original.weights)

    drive = (tmp_path / "drive.csv").read_text().strip().splitlines()
    assert drive[1] == "index,alpha_sq,power_w,intensity_level,phase_rad"
    assert len(drive) == 66  # provenance comment + header + 64 symbols


def test_codebook_export_reexports_existing_file(tmp_path):
    cb_file = tmp_path / "cb.json"
    cb_file.write_text(json.dumps(codebook_to_json(build_codebook(1.0, 4, 4))))
    out = tmp_path / "out"
    assert main(["codebook-export", "--codebook-file", str(cb_file),
                 "--out-dir", str(out)]) == 0
    reloaded = codebook_from_json(read_json(out / "codebook.json")["codebook"])
    assert np.array_equal(reloaded.phases, build_codebook(1.0, 4, 4).phases)


def test_codebook_export_zero_amplitude_exits_feasibility(tmp_path, capsys):
    cb = codebook_to_json(build_codebook(1.0, 2, 2))
    cb["amplitudes"] = [0.0, cb["amplitudes"][1]]
    cb_file = tmp_path / "dark.json"
    cb_file.write_text(json.dumps(cb))
    code = main(["codebook-export", "--codebook-file", str(cb_file),
                 "--out-dir", str(tmp_path)])
    assert code == 4
    assert "symbol 0" in capsys.readouterr().err


def test_codebook_export_extinction_violation_exits_feasibility(tmp_path, capsys):
    code = main(["codebook-export", "--nbar", "1.5", "--codebook-amplitudes", "64",
                 "--codebook-phases", "1", "--out-dir", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "dB" in err


def test_codebook_export_underflowing_powers_exit_numeric(tmp_path, capsys):
    # at nbar 1e-300 every symbol's optical power rounds to 0 W
    out = tmp_path / "out"
    assert main(["codebook-export", "--nbar", "1e-300", "--out-dir", str(out)]) == 3
    assert "codebook has no symbol of nonzero power" in capsys.readouterr().err
    assert not out.exists()


def test_codebook_export_rejects_string_ideal_flag(tmp_path, capsys):
    # bool("false") is true: a string here would silently allow dark symbols.
    cb = codebook_to_json(build_codebook(1.0, 2, 2))
    cb["amplitudes"] = [0.0, cb["amplitudes"][1]]
    cb_file = tmp_path / "dark.json"
    cb_file.write_text(json.dumps(cb))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ideal": "false", "codebook_file": str(cb_file)}))
    out = tmp_path / "out"
    assert main(["codebook-export", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "ideal" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_command_compares_two_matrices(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(fock.density_to_json(fock.thermal(1.0, 30))))
    b.write_text(json.dumps(fock.density_to_json(fock.thermal(1.0, 30))))
    assert main(["metrics", str(a), str(b)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert payload["metrics"]["helstrom_error"] == pytest.approx(0.5, abs=1e-12)

    out_file = tmp_path / "report.json"
    assert main(["metrics", str(a), str(b), "--out", str(out_file)]) == 0
    assert read_json(out_file)["metrics"]["trace_distance"] == pytest.approx(0.0, abs=1e-12)


def test_metrics_command_reads_ensemble_wrapped_matrices(tmp_path):
    assert main(["tomo-end2end", "--source", "vacuum", "--runs", "1", "--seed", "4",
                 "--cutoff", "4", "--phases", "10", "--samples-per-phase", "20",
                 "--out-dir", str(tmp_path)]) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(fock.density_to_json(fock.thermal(0.0, 4))))
    out_file = tmp_path / "cmp.json"
    assert main(["metrics", str(tmp_path / "ensemble.json"), str(bare),
                 "--out", str(out_file)]) == 0
    assert read_json(out_file)["metrics"]["fidelity"] > 0.9


def test_metrics_command_missing_file_exits_config(tmp_path):
    assert main(["metrics", str(tmp_path / "nope.json"), str(tmp_path / "nada.json")]) == 2


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("codebook-export", {"scheme": "random", "seed": "x"}, "seed"),
        ("mimic-sweep", {"nbars": 1.0}, "nbars"),
        ("tomo-end2end", {"source": ["thermal"]}, "source"),
        ("tomo-end2end", {"phases": True}, "phases"),
        ("tomo-end2end", {"gain": "2"}, "gain"),
        ("tomo-end2end", {"phases": 12.7}, "phases"),
    ],
)
def test_wrong_shape_config_value_exits_config(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("metrics", "[1, 2]"),
        ("metrics", '"str"'),
        ("metrics", '{"ensemble": 3}'),
        ("metrics", '{"cutoff": 2}'),
        ("metrics", "{not json"),
        ("codebook-export", "[1, 2]"),
        ("codebook-export", '{"nbar_target": 1.0}'),
        ("codebook-export", '{"codebook": 5}'),
        ("codebook-export", "{not json"),
        ("metrics", '{"cutoff": 0, "entries_real": [[2.0]], "entries_imag": [[0.0]]}'),
        ("codebook-export", '{"nbar_target": 1.0, "amplitudes": [1.0], "phases": [0.0], '
                            '"weights": [[1.0]], "scheme": "bogus"}'),
    ],
)
def test_malformed_input_file_exits_config(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "metrics":
        argv = ["metrics", str(bad), str(bad)]
    else:
        argv = ["codebook-export", "--codebook-file", str(bad), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tomo-end2end", "--scheme", "optimized"],
        ["mimic-sweep", "--nbars", "1.0,x"],
        ["tomo-end2end", "--phases", "2.5"],
        ["codebook-export", "--ideal", "false"],
    ],
)
def test_malformed_flag_exits_config(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def _has_type(value, kind) -> bool:
    args = get_args(kind)
    if get_origin(kind) is Literal:
        return value in args
    if type(None) in args:
        return value is None or _has_type(value, args[0])
    if get_origin(kind) is tuple:
        return isinstance(value, tuple) and all(_has_type(v, args[0]) for v in value)
    return type(value) is kind and (kind is not float or math.isfinite(value))


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["thermal", "artificial", "vacuum", "random", "optimized", "quarter"])
    | st.sampled_from([math.nan, math.inf, -math.inf, 2**1100])
)
_JSON_VALUES = (
    _JSON_LEAVES | st.lists(_JSON_LEAVES, max_size=4)
    | st.dictionaries(st.text(max_size=3), _JSON_LEAVES, max_size=2)
)


@pytest.mark.parametrize("cls", [SweepConfig, TomoConfig, CodebookConfig, MetricsConfig])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_loader_returns_typed_config_or_config_error(tmp_path_factory, cls, data):
    # A few keys at a time, so that some objects are valid throughout; keys
    # without a default are always present, as they are positional arguments.
    keys = st.sampled_from([f.name for f in fields(cls)])
    obj = data.draw(st.dictionaries(keys, _JSON_VALUES, max_size=3))
    obj = {**{f.name: "m.json" for f in fields(cls) if f.default is MISSING}, **obj}
    path = tmp_path_factory.getbasetemp() / f"fuzz_{cls.__name__}.json"
    path.write_text(json.dumps(obj))
    try:
        cfg = _resolve_config(cls, str(path), {})
    except ConfigError:
        return
    kinds = get_type_hints(cls)
    for f in fields(cls):
        assert _has_type(getattr(cfg, f.name), kinds[f.name]), f.name
