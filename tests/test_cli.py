import importlib
import json
import math
import pkgutil
import re
import shlex
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermalmimic
from _states import random_density
from thermalmimic import __version__, cli, fock, homodyne, mimic, physical, tomo
from thermalmimic.cli import (
    CodebookConfig,
    ConfigError,
    MetricsConfig,
    SweepConfig,
    TomoConfig,
    _build_parser,
    _COMMANDS,
    _density_json,
    _field_kinds,
    _load_json,
    _parse_codebook,
    _parse_matrix,
    _resolve_config,
    main,
)
from thermalmimic.mimic import Codebook, CodebookSpec, build_codebook
from thermalmimic.physical import PLANCK, SPEED_OF_LIGHT


def read_json(path):
    return json.loads(path.read_text())


_CODEBOOK = {"nbar_target": 1.0, "amplitudes": [1.0], "phases": [0.0], "weights": [[1.0]],
             "scheme": "stratified"}
_MATRIX = {"cutoff": 1, "entries_real": [[0.5, 0.0], [0.0, 0.5]],
           "entries_imag": [[0.0, 0.0], [0.0, 0.0]]}


def codebook_json(**changes):
    """A 2 x 2 stratified codebook file's JSON, with ``changes`` to its keys."""
    return {"nbar_target": 1.0, "amplitudes": [0.5, 1.5], "phases": [1.0, 4.0],
            "weights": [[0.25, 0.25], [0.25, 0.25]], "scheme": "stratified", "seed": None,
            **changes}


def vacuum_json(cutoff):
    """The vacuum's density-matrix JSON at ``cutoff``."""
    dim = cutoff + 1
    return {"cutoff": cutoff,
            "entries_real": [[float(m == n == 0) for n in range(dim)] for m in range(dim)],
            "entries_imag": [[0.0] * dim for _ in range(dim)]}


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


def test_sweep_csv_shape(tmp_path):
    assert main(["mimic-sweep", "--nbars", "1", "--samples", "4,16",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1] == "nbar,M,scheme,fidelity_mean,fidelity_std"
    assert len(lines) == 4
    assert lines[2].startswith("1,4,stratified,")
    assert lines[3].startswith("1,16,stratified,")


def test_optimized_sweep_rows_name_their_scheme(tmp_path):
    assert main(["mimic-sweep", "--scheme", "optimized", "--nbars", "1", "--samples", "16",
                 "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "sweep.csv").read_text().splitlines()[2]
    assert row.split(",")[2] == "optimized"


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


def test_sweep_rejects_non_square_sample_count(tmp_path, capsys):
    for m in ("50", "0"):
        assert main(["mimic-sweep", "--samples", m, "--out-dir", str(tmp_path)]) == 2
        assert f"sample count must be a perfect square >= 1, got {m}" in capsys.readouterr().err


def test_sweep_rejects_empty_sample_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": []}))
    for extra in (["--samples", ""], ["--config", str(cfg)]):
        assert main(["mimic-sweep", *extra, "--out-dir", str(tmp_path / "out")]) == 2
        assert "samples must be a non-empty list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# The seed-pinned physics bounds below follow one rule, fixed before the
# records were redrawn by the one-generator-per-run sampler: over CLI data
# seeds 1-20 with each test's own flags, measured on the per-phase sampler, a
# floor is min - 2 sd rounded down to two decimals, and a two-sided check is
# [min - 2 sd, max + 2 sd] rounded outward.


def test_tomo_thermal_defaults_reproduce_high_fidelity(tmp_path):
    # full default pipeline (50 phases x 40 samples, 10 runs, nbar 1.35);
    # 0.97 is the documented floor absorbing seed-to-seed spread (seeds 1-20:
    # F 0.9857-0.9893, <n> 1.3674-1.4314). The entropy ceiling of the
    # ensemble's <n> sits above thermal(1.35)'s 2.31 nats because the
    # ensemble overstates <n> by about 4% (ROADMAP item 12): seeds 1-20 read
    # median 2.3572, sd 0.0159, range 2.3261-2.3759
    assert main(["tomo-end2end", "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "metrics.json")["metrics"]
    assert report["fidelity"] >= 0.97
    assert abs(report["mean_photon_b"] - 1.35) <= 0.1
    assert 2.29 <= report["entropy_ceiling"] <= 2.41


def test_tomo_vacuum_single_run(tmp_path):
    assert main(["tomo-end2end", "--source", "vacuum", "--runs", "1", "--seed", "4",
                 "--cutoff", "8", "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "metrics.json")
    assert report["version"] == __version__
    # seeds 1-20: median 0.9922, sd 0.0076, min 0.9714
    assert report["metrics"]["fidelity"] >= 0.95
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
    assert report["fidelity"] >= 0.95  # seeds 1-20: median 0.9925, sd 0.0077, min 0.9716
    # reference is pure up to the Poisson mass truncated at cutoff 8 (~1e-6)
    assert report["entropy_a"] == pytest.approx(0.0, abs=1e-5)


def test_tomo_calibrated_quarter_path(tmp_path):
    assert main(["tomo-end2end", "--source", "vacuum", "--runs", "1", "--seed", "4",
                 "--cutoff", "4", "--phases", "10", "--samples-per-phase", "40",
                 "--gain", "2.5", "--offset", "0.3", "--convention", "quarter",
                 "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "metrics.json")
    # seeds 1-20: median 0.9842, sd 0.0230, min 0.8974
    assert report["metrics"]["fidelity"] >= 0.85


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tomo_raw_convention_changes_no_reconstruction(tmp_path, seed):
    # calibrate scales the records to the chosen vacuum variance and tomo
    # scales them back, so the convention sets only the intermediate scale;
    # calibrate also subtracts the vacuum trace's mean and divides by its
    # spread, which removes the gain and the offset
    raw_knobs = [("half", "2.5", "0.3"), ("quarter", "2.5", "0.3"),
                 ("half", "0.7", "-5.0"), ("half", "40.0", "3.0")]
    outputs = []
    for i, (convention, gain, offset) in enumerate(raw_knobs):
        out = tmp_path / str(i)
        assert main(["tomo-end2end", "--source", "thermal", "--runs", "2", "--seed", str(seed),
                     "--cutoff", "6", "--phases", "8", "--samples-per-phase", "25",
                     "--gain", gain, "--offset", offset, "--convention", convention,
                     "--out-dir", str(out)]) == 0
        outputs.append(read_json(out / "ensemble.json"))
    first, *others = outputs
    for output in others:
        assert np.max(np.abs(_parse_matrix(output).entries
                             - _parse_matrix(first).entries)) <= 1e-12
        assert [r["iterations"] for r in output["runs"]] == [r["iterations"] for r in first["runs"]]


@pytest.mark.parametrize("raw", [[], ["--gain", "2.5", "--offset", "0.3"]], ids=["direct", "raw"])
def test_tomo_run_records_do_not_depend_on_the_number_of_runs(tmp_path, raw):
    # an ensemble's runs are drawn in one pass; each run's records come from
    # its own seed, so adding a third run leaves the first two as they were
    runs = {}
    for n_runs in ("2", "3"):
        out = tmp_path / n_runs
        assert main(["tomo-end2end", "--source", "thermal", "--runs", n_runs, "--seed", "5",
                     "--cutoff", "6", "--phases", "8", "--samples-per-phase", "25", *raw,
                     "--out-dir", str(out)]) == 0
        runs[n_runs] = read_json(out / "ensemble.json")["runs"]
    assert len(runs["3"]) == 3
    assert runs["3"][:2] == runs["2"]


def test_reports_carry_the_contracted_fields(tmp_path):
    assert main(["tomo-end2end", "--source", "vacuum", "--runs", "2", "--phases", "2",
                 "--samples-per-phase", "50", "--cutoff", "4", "--max-iterations", "200",
                 "--seed", "9", "--out-dir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "ensemble.json")
    config = tomo.MleConfig(cutoff=4, max_iterations=200)
    seeds = np.random.SeedSequence(9).spawn(2)[0].spawn(2)  # the ensemble branch's runs
    expected = tomo.reconstruct_ensemble(
        homodyne.sample(fock.thermal(0.0, 30), [0.0, math.pi], 50, seeds), config)
    assert payload["runs"] == [
        {"converged": r.converged, "iterations": r.iterations,
         "final_log_likelihood": float(r.log_likelihoods[-1]),
         "optimality_gap": r.optimality_gap}
        for r in expected.runs
    ]
    ensemble = payload["ensemble"]
    assert set(ensemble) == {"cutoff", "matrix", "elementwise_std", "n_runs", "mean_photon"}
    assert ensemble["cutoff"] == 4
    assert ensemble["n_runs"] == 2
    assert np.array_equal(_parse_matrix(payload).entries, expected.mean.entries)
    assert ensemble["elementwise_std"] == expected.spread.tolist()
    assert ensemble["mean_photon"] == fock.mean_photon(expected.mean)


def test_density_json_round_trip_is_bit_exact():
    rho = random_density(np.random.default_rng(11), cutoff=7)
    back = _parse_matrix(json.loads(json.dumps(_density_json(rho))))
    assert np.array_equal(back.entries, rho.entries)
    assert back.cutoff == rho.cutoff


def test_tomo_truncation_failure_exits_numeric(tmp_path):
    assert main(["tomo-end2end", "--source", "thermal", "--nbar", "5.0",
                 "--source-cutoff", "10", "--out-dir", str(tmp_path)]) == 3
    # a one-row mixture's weighted tail is its row's tail
    assert main(["tomo-end2end", "--source", "coherent", "--nbar", "5",
                 "--source-cutoff", "10", "--out-dir", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        # the reference state at the MLE cutoff loses (2/3)^7 = 0.059 > 0.05
        ["--source", "thermal", "--nbar", "2", "--cutoff", "6", "--runs", "10"],
        # the hat-vs-hat thermal source loses (2/3)^21 = 2e-4 > 1e-5
        ["--source", "artificial", "--nbar", "2.0", "--source-cutoff", "20",
         "--runs", "2", "--phases", "10", "--samples-per-phase", "10"],
    ],
)
def test_tomo_truncation_fails_before_sampling(tmp_path, capsys, monkeypatch, argv):
    calls = []

    def counting_sample(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    sample = homodyne.sample
    monkeypatch.setattr(homodyne, "sample", counting_sample)
    out = tmp_path / "out"
    assert main(["tomo-end2end", *argv, "--out-dir", str(out)]) == 3
    assert "loses mass" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_tomo_reports_the_reference_trace(tmp_path):
    # a reference truncated within its 0.05 budget still scores the run: the
    # thermal(3.5) reference at cutoff 12 keeps 1 - (3.5/4.5)^13 = 0.9619 of its mass
    assert main(["tomo-end2end", "--nbar", "3.5", "--source-cutoff", "60", "--cutoff", "12",
                 "--runs", "1", "--phases", "4", "--samples-per-phase", "50",
                 "--out-dir", str(tmp_path)]) == 0
    trace = read_json(tmp_path / "metrics.json")["metrics"]["reference_trace"]
    assert trace == fock.thermal(3.5, 12, tail_tol=0.05).trace
    assert trace == pytest.approx(1.0 - (3.5 / 4.5) ** 13, rel=1e-12)


def test_convention_choices_are_the_homodyne_literal(tmp_path, capsys):
    # --convention's choices and the config file's check both read homodyne.Convention
    tomo_parser = _build_parser()._subparsers._group_actions[0].choices["tomo-end2end"]
    flag = next(a for a in tomo_parser._actions if a.dest == "convention")
    assert flag.choices == get_args(homodyne.Convention) == ("half", "quarter")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"convention": "eighth"}))
    assert main(["tomo-end2end", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "convention must be one of half, quarter; got 'eighth'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_artificial_source_takes_any_number_of_runs():
    # both ensembles are spawned from one root, so no run count makes two share a seed
    assert TomoConfig(source="artificial", runs=10001).runs == 10001


def test_one_command_draws_every_stream_from_its_own_spawn_key(tmp_path, monkeypatch):
    # branch 0 holds the ensemble's runs, branch 1 the hat-vs-hat thermal
    # ensemble's, and each raw run's vacuum is child 0 of its run: the keys
    # (b, r) and (b, r, 0) of the root SeedSequence(seed), pairwise distinct
    roots = []

    def recording_sample(rho, phases, n_per_phase, seeds):
        roots.extend(seeds)
        return sample(rho, phases, n_per_phase, seeds)

    sample = homodyne.sample
    monkeypatch.setattr(homodyne, "sample", recording_sample)
    assert main(["tomo-end2end", "--source", "artificial", "--nbar", "1.0",
                 "--codebook-amplitudes", "2", "--codebook-phases", "2", "--phases", "4",
                 "--samples-per-phase", "10", "--runs", "3", "--cutoff", "4", "--seed", "6",
                 "--gain", "2.5", "--offset", "0.3", "--out-dir", str(tmp_path)]) == 0
    assert all(isinstance(root, np.random.SeedSequence) for root in roots)
    assert {root.entropy for root in roots} == {6}
    keys = [tuple(root.spawn_key) for root in roots]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted((b, r, *vacuum) for b in (0, 1) for r in range(3)
                                  for vacuum in ((), (0,)))


def test_tomo_config_rejects_non_finite_knobs():
    # the CLI's typing rule rejects nan and inf before a config is built; a
    # config built in Python meets these checks instead of failing mid-run
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="nbar must be > 0"):
            TomoConfig(nbar=bad)
        with pytest.raises(ConfigError, match="gain must be > 0"):
            TomoConfig(gain=bad)
        with pytest.raises(ConfigError, match=f"offset must be finite, got {bad}"):
            TomoConfig(offset=bad)


@pytest.mark.parametrize(
    "argv, knob",
    [
        (["tomo-end2end", "--stop-tol", "0"], "stop_tol"),
        (["tomo-end2end", "--max-iterations", "0"], "max_iterations"),
        (["codebook-export", "--tau", "0"], "tau"),
        (["codebook-export", "--extinction-db", "0"], "extinction_db"),
        (["codebook-export", "--wavelength", "0"], "wavelength"),
        (["mimic-sweep", "--trials", "0"], "trials"),
        (["codebook-export", "--nbar", "0"], "nbar"),
    ],
)
def test_library_type_rejecting_a_knob_exits_config(tmp_path, capsys, argv, knob):
    # tomo.MleConfig, physical.Transmitter, mimic.SweepSpec and
    # mimic.CodebookSpec check these knobs; the config loader makes their
    # ValueError a config error
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {knob} must be")
    assert not out.exists()


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


def test_tomo_config_file_naming_dilution_exits_config(tmp_path, capsys):
    # the MLE has no damping knob; a config that still names one is rejected
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dilution": 0.5}))
    assert main(["tomo-end2end", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "unknown config keys: dilution" in capsys.readouterr().err


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
    reloaded, _ = _parse_codebook(payload)
    original = build_codebook(CodebookSpec(1.5, 8, 8))
    assert np.array_equal(reloaded.amplitudes, original.amplitudes)
    assert np.array_equal(reloaded.weights, original.weights)

    drive = (tmp_path / "drive.csv").read_text().strip().splitlines()
    assert drive[1] == "index,alpha_sq,power_w,intensity_level,phase_rad"
    assert len(drive) == 66  # provenance comment + header + 64 symbols


def test_codebook_json_round_trip(tmp_path):
    assert main(["codebook-export", "--scheme", "random", "--seed", "7", "--nbar", "1.5",
                 "--extinction-db", "40", "--out-dir", str(tmp_path)]) == 0
    written = read_json(tmp_path / "codebook.json")
    back, provenance = _parse_codebook(written)
    cb = build_codebook(CodebookSpec(1.5, 8, 8, "random", seed=7))
    assert np.array_equal(back.amplitudes, cb.amplitudes)
    assert np.array_equal(back.phases, cb.phases)
    assert np.array_equal(back.weights, cb.weights)
    # the provenance is the config the codebook was built from, and reads back as written
    expected = {"nbar_target": 1.5, "scheme": "random", "seed": 7}
    assert {key: written["codebook"][key] for key in expected} == expected
    assert provenance == expected


def test_drive_csv_header_and_rows(tmp_path):
    # L != Q: every row equals a scalar oracle built from Python floats
    assert main(["codebook-export", "--nbar", "1.0", "--codebook-amplitudes", "3",
                 "--codebook-phases", "2", "--scheme", "random", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "drive.csv").read_text().splitlines()
    assert lines[1] == "index,alpha_sq,power_w,intensity_level,phase_rad"
    cb = build_codebook(CodebookSpec(1.0, 3, 2, "random", seed=5))
    symbols = [(a, q) for a in cb.amplitudes.tolist() for q in cb.phases.tolist()]
    frequency = SPEED_OF_LIGHT / CodebookConfig.wavelength
    powers = [a * a * PLANCK * frequency / CodebookConfig.tau for a, _ in symbols]
    assert lines[2:] == [
        f"{i},{a * a:.17g},{power:.17g},{power / max(powers):.17g},{q:.17g}"
        for i, ((a, q), power) in enumerate(zip(symbols, powers))
    ]


def test_codebook_export_reexports_existing_file(tmp_path):
    cb_file = tmp_path / "cb.json"
    cb_file.write_text(json.dumps(codebook_json()))
    out = tmp_path / "out"
    assert main(["codebook-export", "--codebook-file", str(cb_file),
                 "--out-dir", str(out)]) == 0
    assert read_json(out / "codebook.json")["codebook"] == codebook_json()


def test_codebook_export_writes_back_the_typed_provenance(tmp_path):
    # the file's provenance is typed as config values are: an integer
    # nbar_target is written back as a float, a null seed as null
    cb_file = tmp_path / "cb.json"
    cb_file.write_text(json.dumps(codebook_json(nbar_target=1, scheme="random")))
    out = tmp_path / "out"
    assert main(["codebook-export", "--codebook-file", str(cb_file),
                 "--out-dir", str(out)]) == 0
    text = (out / "codebook.json").read_text()
    assert '"nbar_target": 1.0,' in text and '"seed": null' in text
    assert json.loads(text)["codebook"] == codebook_json(scheme="random")


def test_codebook_export_unknown_scheme_exits_config(tmp_path, capsys):
    cb_file = tmp_path / "cb.json"
    cb_file.write_text(json.dumps(codebook_json(scheme="optimized")))
    out = tmp_path / "out"
    assert main(["codebook-export", "--codebook-file", str(cb_file),
                 "--out-dir", str(out)]) == 2
    assert "scheme must be one of stratified, random; got 'optimized'" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_codebook_export_zero_amplitude_exits_feasibility(tmp_path, capsys):
    cb_file = tmp_path / "dark.json"
    cb_file.write_text(json.dumps(codebook_json(amplitudes=[0.0, 1.5])))
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


def test_codebook_export_overflowing_powers_exit_numeric(tmp_path, capsys):
    # at a 1e-300 m wavelength the photon energy, and so every power, is inf
    out = tmp_path / "out"
    assert main(["codebook-export", "--nbar", "1.5", "--codebook-amplitudes", "2",
                 "--codebook-phases", "2", "--wavelength", "1e-300",
                 "--out-dir", str(out)]) == 3
    assert "optical power is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_codebook_export_overflowing_amplitude_exits_numeric(tmp_path, capsys):
    # 1e200 is finite, so Codebook takes it, but its square is not: the first
    # symbol on that ring (symbol 2 of the 2 x 2 grid) is named, and numpy
    # warns of no overflow (the suite turns warnings into errors)
    cb_file = tmp_path / "huge.json"
    cb_file.write_text(json.dumps(codebook_json(amplitudes=[1.0, 1e200])))
    out = tmp_path / "out"
    assert main(["codebook-export", "--codebook-file", str(cb_file),
                 "--out-dir", str(out)]) == 3
    assert "symbol 2 has amplitude 1e+200, whose square |alpha|^2 overflows" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "field, index", [("amplitudes", 0), ("phases", 1), ("weights", 0), ("nbar_target", None)]
)
def test_codebook_export_nan_field_exits_config(tmp_path, capsys, field, index):
    # json.loads reads NaN, and NaN fails every range comparison silently: the
    # input file's typing rule rejects it, as Codebook does for library callers
    # of the constellation's own fields
    cb = codebook_json()
    if index is None:
        cb[field] = math.nan
    else:
        cb[field][index] = [math.nan, 0.25] if field == "weights" else math.nan
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Codebook(cb["amplitudes"], cb["phases"], cb["weights"])
    cb_file = tmp_path / "nan.json"
    cb_file.write_text(json.dumps(cb))
    out = tmp_path / "out"
    assert main(["codebook-export", "--codebook-file", str(cb_file),
                 "--out-dir", str(out)]) == 2
    assert f"{field} must be float, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_codebook_export_rejects_string_ideal_flag(tmp_path, capsys):
    # bool("false") is true: a string here would silently allow dark symbols.
    cb_file = tmp_path / "dark.json"
    cb_file.write_text(json.dumps(codebook_json(amplitudes=[0.0, 1.5])))
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
    a.write_text(json.dumps(_MATRIX))
    b.write_text(json.dumps({"matrix": _MATRIX}))
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
    bare.write_text(json.dumps(vacuum_json(4)))
    out_file = tmp_path / "cmp.json"
    assert main(["metrics", str(tmp_path / "ensemble.json"), str(bare),
                 "--out", str(out_file)]) == 0
    assert read_json(out_file)["metrics"]["fidelity"] > 0.9


def test_metrics_command_missing_file_exits_config(tmp_path):
    assert main(["metrics", str(tmp_path / "nope.json"), str(tmp_path / "nada.json")]) == 2


@pytest.mark.parametrize(
    "argv, out",
    [
        # an --out-dir that is an existing file, or lies under one
        (["mimic-sweep", "--nbars", "1", "--samples", "4"], "file"),
        (["tomo-end2end", "--source", "vacuum", "--runs", "1", "--cutoff", "2", "--phases", "4",
          "--samples-per-phase", "10"], "file/out"),
        (["codebook-export"], "file"),
        (["codebook-export"], "file/out"),
        # a metrics --out that is a directory
        (["metrics", "a.json", "a.json", "--out"], "dir"),
        # an --out-dir whose second output is a directory: the first is not written either
        (["codebook-export"], "blocked"),
        (["tomo-end2end", "--source", "vacuum", "--runs", "1", "--cutoff", "2", "--phases", "4",
          "--samples-per-phase", "10"], "blocked"),
    ],
    ids=["mimic-sweep", "tomo-end2end", "codebook-export", "codebook-export-under-file",
         "metrics", "codebook-export-second-file", "tomo-end2end-second-file"],
)
def test_unwritable_output_path_exits_config(tmp_path, monkeypatch, capsys, argv, out):
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("kept\n")
    Path("dir").mkdir()
    for blocker in ("drive.csv", "metrics.json"):
        Path("blocked", blocker).mkdir(parents=True)
    Path("a.json").write_text(json.dumps(_MATRIX))
    if argv[0] == "metrics":
        argv = [*argv, out]
    else:
        argv = [*argv, "--out-dir", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}")
    assert Path("file").read_text() == "kept\n"
    assert not any(Path("dir").iterdir())
    assert sorted(p.name for p in Path("blocked").iterdir()) == ["drive.csv", "metrics.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "blocked", "dir", "file"]


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
        # right type, out of range
        ("mimic-sweep", {"nbars": []}, "nbars"),
        ("mimic-sweep", {"trials": 0}, "trials"),
        ("tomo-end2end", {"runs": 0}, "runs"),
        ("tomo-end2end", {"source_cutoff": -1}, "source_cutoff"),
        ("tomo-end2end", {"gain": 0.0}, "gain"),
        ("codebook-export", {"nbar": 0}, "nbar"),
        ("tomo-end2end", {"cutoff": -1}, "cutoff"),
        ("mimic-sweep", {"cutoff": -1}, "cutoff"),
        # one record per run leaves the raw path's vacuum trace without a spread
        ("tomo-end2end", {"gain": 1.0, "phases": 1, "samples_per_phase": 1}, "samples_per_phase"),
        # a seed below 0, which numpy cannot seed a generator from
        ("codebook-export", {"scheme": "random", "seed": -1}, "seed"),
        ("mimic-sweep", {"scheme": "random", "seed": -1}, "seed"),
        ("tomo-end2end", {"source": "vacuum", "seed": -1}, "seed"),
    ],
)
def test_wrong_shape_config_value_exits_config(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def _int_knobs():
    """Every int field of every config, as (command, key, a value of -1 or [-1])."""
    for command, (cls, _) in _COMMANDS.items():
        kinds = get_type_hints(cls)
        for f in fields(cls):
            kind = kinds[f.name]
            if int in (kind, *get_args(kind)):
                value = [-1] if get_origin(kind) is tuple else -1
                yield pytest.param(command, f.name, value, id=f"{command}-{f.name}")


@pytest.mark.parametrize("command, key, value", list(_int_knobs()))
def test_negative_int_knob_exits_config(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"{key} must be >= 0, got -1" in capsys.readouterr().err
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
        ("metrics", '{"cutoff": 1, "entries_real": [[NaN, 0.0], [0.0, 0.5]], '
                    '"entries_imag": [[0.0, 0.0], [0.0, 0.0]]}'),
        ("metrics", '{"cutoff": 1, "entries_real": [[0.5, Infinity], [Infinity, 0.5]], '
                    '"entries_imag": [[0.0, 0.0], [0.0, 0.0]]}'),
        # not PSD, then not Hermitian: the density-matrix constructor is the
        # only check a metrics input passes
        ("metrics", '{"cutoff": 1, "entries_real": [[1.2, 0.0], [0.0, -0.2]], '
                    '"entries_imag": [[0.0, 0.0], [0.0, 0.0]]}'),
        ("metrics", '{"cutoff": 1, "entries_real": [[0.5, 0.1], [0.0, 0.5]], '
                    '"entries_imag": [[0.0, 0.0], [0.0, 0.0]]}'),
        # a --config file must hold an object
        ("tomo-end2end", "[1, 2]"),
        # a seed is a non-negative integer or null, nbar_target a number, a cutoff an integer
        *(pytest.param("codebook-export", json.dumps({**_CODEBOOK, "seed": seed}),
                       id=f"codebook-export-seed-{seed!r}")
          for seed in ("abc", [1, 2], 1.5, True, -1)),
        *(pytest.param("codebook-export", json.dumps({**_CODEBOOK, "nbar_target": nbar}),
                       id=f"codebook-export-nbar_target-{nbar!r}")
          for nbar in ("1.5", True)),
        *(pytest.param("metrics", json.dumps({**_MATRIX, "cutoff": cutoff}),
                       id=f"metrics-cutoff-{cutoff!r}")
          for cutoff in (1.9, "1", True)),
        # an integer past the float range
        pytest.param("codebook-export", json.dumps({**_CODEBOOK, "nbar_target": 10**400}),
                     id="codebook-export-nbar_target-10**400"),
        # a sweep scheme, not a codebook's
        pytest.param("codebook-export", json.dumps({**_CODEBOOK, "scheme": "optimized"}),
                     id="codebook-export-scheme-optimized"),
        pytest.param("metrics", json.dumps({**_MATRIX, "entries_real": [[10**400, 0], [0, 0]]}),
                     id="metrics-entries-10**400"),
        # two valid files of different cutoffs
        pytest.param("metrics", tuple(json.dumps(vacuum_json(cutoff)) for cutoff in (10, 12)),
                     id="metrics-cutoff-mismatch"),
        # a string or a bool in a number list, which numpy's dtype=float would read as a number
        *(pytest.param("codebook-export", json.dumps({**_CODEBOOK, key: value}),
                       id=f"codebook-export-{key}-{value!r}")
          for key, value in (("amplitudes", ["1.0"]), ("amplitudes", [True]),
                             ("phases", ["0"]), ("phases", [False]),
                             ("weights", [["1"]]), ("weights", [[True]]))),
        *(pytest.param("metrics", json.dumps({**_MATRIX, key: value}),
                       id=f"metrics-{key}-{value!r}")
          for key, value in (("entries_real", [["0.5", 0.0], [0.0, "0.5"]]),
                             ("entries_real", [[True, False], [False, False]]),
                             ("entries_imag", [["0", 0.0], [0.0, 0.0]]),
                             ("entries_imag", [[False, False], [False, False]]))),
    ],
)
def test_malformed_input_file_exits_config(tmp_path, capsys, command, text):
    texts = text if isinstance(text, tuple) else (text,)  # a pair is two metrics files
    bad = [tmp_path / f"bad{i}.json" for i in range(len(texts))]
    for path, body in zip(bad, texts):
        path.write_text(body)
    out = tmp_path / "out"
    if command == "metrics":
        argv = ["metrics", str(bad[0]), str(bad[-1]), "--out", str(out / "report.json")]
    elif command == "codebook-export":
        argv = ["codebook-export", "--codebook-file", str(bad[0]), "--out-dir", str(out)]
    else:
        argv = [command, "--config", str(bad[0]), "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    for path in bad:
        assert str(path) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tomo-end2end", "--scheme", "optimized"],
        ["mimic-sweep", "--nbars", "1.0,x"],
        ["tomo-end2end", "--phases", "2.5"],
        ["codebook-export", "--ideal", "false"],
        ["tomo-end2end", "--dilution", "0.5"],
        # an empty item is malformed, not skipped; only "" is the empty list
        ["mimic-sweep", "--nbars", "0.5,,1.0"],
        ["mimic-sweep", "--samples", "4,,16,"],
    ],
)
def test_malformed_flag_exits_config(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_the_parser_built_once_parses_each_call_afresh(tmp_path):
    # the parser is built once per process: a malformed flag after a valid
    # call still exits 2, and a repeated call writes the same bytes
    args = ["mimic-sweep", "--nbars", "0.5", "--samples", "4,16", "--seed", "3",
            "--out-dir", str(tmp_path)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(SystemExit) as exc:
        main(["mimic-sweep", "--nbars", "1.0,x", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert main(args) == 0
    assert first == {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def test_config_field_types_are_evaluated_once_per_class(monkeypatch):
    # the config resolver and the parser read one cached map of each config
    # class's evaluated annotations, whatever the number of calls
    evaluated = []

    def counting_hints(cls):
        evaluated.append(cls)
        return get_type_hints(cls)

    monkeypatch.setattr(cli, "get_type_hints", counting_hints)
    _field_kinds.cache_clear()
    _build_parser.cache_clear()
    try:
        for _ in range(3):
            assert _resolve_config(TomoConfig, None, {"runs": 2}).runs == 2
        _build_parser()
        assert sorted(cls.__name__ for cls in evaluated) == sorted(c.__name__ for c, _ in
                                                                   _COMMANDS.values())
    finally:
        _field_kinds.cache_clear()
        _build_parser.cache_clear()


#: The library defaults a command overrides: the codebook export's own target,
#: and the seed of a tomography run, which also seeds its data.
_OVERRIDES = {(CodebookConfig, "nbar"): 1.5, (TomoConfig, "seed"): 1}


@pytest.mark.parametrize("cls, library", [(TomoConfig, tomo.MleConfig),
                                          (CodebookConfig, physical.Transmitter),
                                          (SweepConfig, mimic.SweepSpec),
                                          (TomoConfig, mimic.CodebookSpec),
                                          (CodebookConfig, mimic.CodebookSpec)],
                         ids=["TomoConfig-MleConfig", "CodebookConfig-Transmitter",
                              "SweepConfig-SweepSpec", "TomoConfig-CodebookSpec",
                              "CodebookConfig-CodebookSpec"])
def test_command_config_extends_the_library_config_it_feeds(tmp_path, cls, library):
    # a library knob is declared once, in the library type, and the command
    # takes it as a flag and as a config key, with the library's default
    # unless the command overrides it
    assert issubclass(cls, library)
    command = next(name for name, (c, _) in _COMMANDS.items() if c is cls)
    defaults = {f.name: f.default for f in fields(cls)}
    kinds = get_type_hints(library)
    for f in fields(library):
        default = _OVERRIDES.get((cls, f.name), f.default)
        assert defaults[f.name] == default
        config = tmp_path / f"{f.name}.json"
        config.write_text(json.dumps({f.name: default}))
        assert getattr(_resolve_config(cls, str(config), {}), f.name) == default
        if default is None:  # no flag value spells None
            continue
        value = True if kinds[f.name] is bool else default  # a bool flag sets True
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        flag = ["--" + f.name.replace("_", "-")] + ([] if value is True else [text])
        args = vars(_build_parser().parse_args([command, *flag]))
        del args["command"]
        assert getattr(_resolve_config(cls, args.pop("config"), args), f.name) == value


def test_each_exception_type_has_its_own_exit_code():
    # main maps ConfigError to 2 and ExtinctionRangeError to 4; any other
    # ValueError exits 3, so a further subclass would name nothing main tells apart
    modules = ("cli", "fock", "homodyne", "metrics", "mimic", "physical", "tomo")
    defined = {
        f"{name}.{attr}"
        for name in modules
        for attr, obj in vars(importlib.import_module(f"thermalmimic.{name}")).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__ == f"thermalmimic.{name}"
    }
    assert defined == {"cli.ConfigError", "physical.ExtinctionRangeError"}


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


def _json_has_type(value, kind) -> bool:
    """Whether a JSON value fits a ``kind`` field: a list where a tuple is
    asked, a finite int or float where a float is."""
    args = get_args(kind)
    if type(None) in args:
        return value is None or _json_has_type(value, args[0])
    if get_origin(kind) is tuple:
        return isinstance(value, list) and all(_json_has_type(v, args[0]) for v in value)
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


_INPUT_KINDS = {
    "cutoff": int, "entries_real": tuple[tuple[float, ...], ...],
    "entries_imag": tuple[tuple[float, ...], ...], "nbar_target": float,
    "amplitudes": tuple[float, ...], "phases": tuple[float, ...],
    "weights": tuple[tuple[float, ...], ...], "scheme": str, "seed": int | None,
}


@pytest.mark.parametrize(
    "parse, layout, kind",
    [(_parse_matrix, _MATRIX, fock.FockDensityMatrix),
     (_parse_codebook, {**_CODEBOOK, "seed": None}, Codebook)],
    ids=["matrix", "codebook"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_input_parser_returns_a_value_or_config_error(tmp_path_factory, parse, layout, kind,
                                                       data):
    # a valid file with up to two of its keys given other JSON values, lists
    # of lists among them, so that some files stay valid; a file that parses
    # holds values of its fields' types only
    values = _JSON_VALUES | st.lists(st.lists(_JSON_LEAVES, max_size=3), max_size=3)
    changes = data.draw(st.dictionaries(st.sampled_from(sorted(layout)), values, max_size=2))
    path = tmp_path_factory.getbasetemp() / f"fuzz_{kind.__name__}.json"
    path.write_text(json.dumps({**layout, **changes}))
    try:
        value = _load_json(str(path), "input file", parse)
    except ConfigError:
        return
    assert isinstance(value[0] if parse is _parse_codebook else value, kind)
    for key, item in changes.items():
        assert _json_has_type(item, _INPUT_KINDS[key]), key


def test_readme_examples_resolve():
    # every `$ thermalmimic ...` example in the README parses and resolves to
    # a config, so a renamed flag or config field cannot leave the docs stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [
        shlex.split(line.split("$ thermalmimic ", 1)[1], comments=True)
        for line in readme.replace("\\\n", " ").splitlines()
        if line.lstrip().startswith("$ thermalmimic ")
    ]
    assert examples
    for argv in examples:
        args = vars(_build_parser().parse_args(argv))
        cls, _ = _COMMANDS[args.pop("command")]
        _resolve_config(cls, args.pop("config", None), args)


def test_readme_module_names_resolve():
    # every backticked `module.name` of a thermalmimic module in the README
    # names something that exists, so a deleted function cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {m.name: importlib.import_module(f"thermalmimic.{m.name}")
               for m in pkgutil.iter_modules(thermalmimic.__path__)}
    modules["thermalmimic"] = thermalmimic
    names = [
        (module, name)
        for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
        for module, name in re.findall(r"\b(\w+)\.(\w+)", span)
        if module in modules
    ]
    assert ("tomo", "measurement_matrix") in names
    for module, name in names:
        assert hasattr(modules[module], name), f"{module}.{name}"
