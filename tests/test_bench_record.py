"""The parser and the pair bookkeeping of ``tools/bench_record.py``, fed a
captured ``perfbench/run.py`` output and fixed metric values held in the test,
so no benchmark process starts."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

#: ``run.py --workload tomo-artificial-raw --seed 1 --seconds 1 --trace 0``
#: on a 2-core Xeon, Python 3.11.7, numpy 2.4.6.
CAPTURED = """\
workload tomo-artificial-raw  seed 1  seconds 1  trace 0
  machine {"blas": "scipy-openblas 0.3.31.188.0", "blas_thread_env": {"BLIS_NUM_THREADS": null, \
"MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": null, "OMP_NUM_THREADS": "1", \
"OPENBLAS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": null}, "blas_thread_env_found": \
{"MKL_NUM_THREADS": null, "OMP_NUM_THREADS": null, "OPENBLAS_NUM_THREADS": null}, \
"cpu_model": "Intel(R) Xeon(R) Processor", "git_commit": \
"596c9e36fcd357e4798699e2dac07a6e63327754", "nproc": 2, "numpy": "2.4.6", \
"pinned_cpu": 0, "python": "3.11.7", "scipy": "1.17.1", "src_sha256": "d9e1295b1c8c87c0"}
  invocations: untraced median 0.0424 s, min 0.0371, max 0.0510, n=23; traced none
  import thermalmimic.cli: median 0.1195 s, min 0.0918, max 0.1237, n=5
  speed sampler: 96 probes, mean 0.3692 ms (reference 0.5000 ms)
  attempted 23, failed 0 (failed_frac 0)
  physics fidelity_ref                     0.9282556846 1
  physics helstrom_hat_vs_hat              0.3494473954 1
  physics ll_per_record                    -1.668211037 nat
  physics mle_iterations                            100 count
  solution_s                                  0.0574559 s
  setup_s                                      0.139597 s
  peak_rss_mb                                   43.6641 MB
  fidelity_ref                                 0.928256 1
{"correct": true, "attempted": 23, "failed": 0, "metrics": {"solution_s": {"value": \
0.05745588726626179, "unit": "s"}, "setup_s": {"value": 0.13959696111360906, "unit": "s"}, \
"peak_rss_mb": {"value": 43.6640625, "unit": "MB"}, "fidelity_ref": {"value": \
0.9282556846315659, "unit": "1"}}}
"""


def test_parse_run_keeps_the_machine_physics_and_result_lines():
    record = bench_record.parse_run(CAPTURED)
    assert set(record) == {"machine", "physics", "correct", "attempted", "failed", "metrics"}
    assert record["machine"]["src_sha256"] == "d9e1295b1c8c87c0"
    assert record["machine"]["git_commit"] == "596c9e36fcd357e4798699e2dac07a6e63327754"
    assert record["machine"]["blas_thread_env"]["OMP_NUM_THREADS"] == "1"
    assert record["physics"] == {"fidelity_ref": 0.9282556846, "helstrom_hat_vs_hat": 0.3494473954,
                                 "ll_per_record": -1.668211037, "mle_iterations": 100.0}
    assert (record["correct"], record["attempted"], record["failed"]) == (True, 23, 0)
    assert list(record["metrics"]) == ["solution_s", "setup_s", "peak_rss_mb", "fidelity_ref"]
    assert record["metrics"]["solution_s"] == {"value": 0.05745588726626179, "unit": "s"}


def test_parse_run_refuses_an_output_without_a_machine_line():
    text = "\n".join(line for line in CAPTURED.splitlines() if "machine {" not in line)
    with pytest.raises(ValueError, match="no machine line"):
        bench_record.parse_run(text)


#: ``git status --porcelain -- src perfbench BENCHMARK.json`` of a tree with
#: one file of each kind of change.
PORCELAIN = """\
 M src/thermalmimic/homodyne.py
M  src/thermalmimic/tomo.py
MM perfbench/run.py
 D BENCHMARK.json
R  src/thermalmimic/old.py -> src/thermalmimic/new.py
?? src/thermalmimic/scratch.py
"""


def test_uncommitted_lists_every_changed_path_of_the_porcelain_status():
    assert bench_record.uncommitted(PORCELAIN) == [
        "src/thermalmimic/homodyne.py", "src/thermalmimic/tomo.py", "perfbench/run.py",
        "BENCHMARK.json", "src/thermalmimic/new.py", "src/thermalmimic/scratch.py",
    ]
    assert bench_record.uncommitted("") == []


def test_bytecode_lists_the_pyc_files_under_src_only(tmp_path):
    assert bench_record.bytecode(tmp_path) == []  # no src at all
    package = tmp_path / "src" / "thermalmimic"
    (package / "__pycache__").mkdir(parents=True)
    (package / "mimic.py").write_text("")
    assert bench_record.bytecode(tmp_path) == []  # a clean checkout
    for name in ("mimic.cpython-311.pyc", "fock.cpython-311.pyc"):
        (package / "__pycache__" / name).write_bytes(b"")
    (tmp_path / "src" / "stray.pyc").write_bytes(b"")
    (tmp_path / "tools" / "__pycache__").mkdir(parents=True)
    (tmp_path / "tools" / "__pycache__" / "bench_record.cpython-311.pyc").write_bytes(b"")
    assert bench_record.bytecode(tmp_path) == [
        "src/stray.pyc",
        "src/thermalmimic/__pycache__/fock.cpython-311.pyc",
        "src/thermalmimic/__pycache__/mimic.cpython-311.pyc",
    ]


@pytest.mark.parametrize("bytecode, threshold", [(None, None), ("1", "131072"), ("", "")],
                         ids=["unset", "set", "empty"])
def test_bench_file_records_the_bytecode_variable_as_found(bytecode, threshold, tmp_path,
                                                           monkeypatch):
    # main on a tree outside git, each run answered by the captured output: the
    # BENCH file holds PYTHONDONTWRITEBYTECODE and MALLOC_MMAP_THRESHOLD_, which the
    # runs inherit, next to the bytecode list, each null when unset
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "tomo-artificial-raw"}], "end_to_end": []}')
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run", lambda *args: bench_record.parse_run(CAPTURED))
    found = {"PYTHONDONTWRITEBYTECODE": bytecode, "MALLOC_MMAP_THRESHOLD_": threshold}
    for name, value in found.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    assert bench_record.main(["probe"]) == 0
    payload = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert {name: payload[name] for name in found} == found
    assert (payload["bytecode"], payload["uncommitted"]) == ([], None)
    assert list(payload["workloads"]["tomo-artificial-raw"]) == ["traced", "untraced"]


def test_odd_pairs_run_the_other_commit_first():
    assert [bench_record.pair_order(n) for n in (1, 2, 3, 4)] == [
        ("against", "tree"), ("tree", "against"), ("against", "tree"), ("tree", "against")]


def _pair(first, against, tree):
    # one pair's two records, reduced to the metric values summarize reads
    def record(values):
        return {"metrics": {name: {"value": value} for name, value in values.items()}}
    return {"first": first, "against": record(against), "tree": record(tree)}


END_TO_END = [{"name": "solution_s", "better": "lower"},
              {"name": "fidelity_ref", "better": "higher"}]


def test_summarize_gives_each_sides_quartiles_and_the_trees_wins():
    solution = [(0.030, 0.020), (0.026, 0.027), (0.028, 0.021), (0.024, 0.024), (0.032, 0.022)]
    fidelity = [(0.95, 0.96), (0.95, 0.95), (0.95, 0.94), (0.95, 0.96), (0.95, 0.95)]
    pairs = [_pair(bench_record.pair_order(n)[0], {"solution_s": s[0], "fidelity_ref": f[0]},
                   {"solution_s": s[1], "fidelity_ref": f[1]})
             for n, (s, f) in enumerate(zip(solution, fidelity), start=1)]
    summary = bench_record.summarize(pairs, END_TO_END)
    assert list(summary) == ["solution_s", "fidelity_ref"]
    # inclusive quartiles of 0.024, 0.026, 0.028, 0.030, 0.032 and of 0.020-0.027
    assert summary["solution_s"]["against"] == pytest.approx(
        {"q1": 0.026, "median": 0.028, "q3": 0.030}, abs=1e-15)
    assert summary["solution_s"]["tree"] == pytest.approx(
        {"q1": 0.021, "median": 0.022, "q3": 0.024}, abs=1e-15)
    # lower is better: 3 wins, one loss (0.027 > 0.026) and one tie (0.024)
    assert summary["solution_s"]["wins"] == 3
    assert summary["solution_s"]["better"] == "lower"
    # higher is better: 2 wins, one loss and two ties
    assert summary["fidelity_ref"]["wins"] == 2
    assert summary["fidelity_ref"]["against"] == {"q1": 0.95, "median": 0.95, "q3": 0.95}


@pytest.mark.parametrize("argv, message", [
    (["x", "--pairs", "10"], "--against and --pairs go together"),
    (["x", "--against", "HEAD"], "--against and --pairs go together"),
    (["x", "--against", "HEAD", "--pairs", "1"], "--pairs must be >= 2, got 1"),
    (["x", "--workload", "nope"], "invalid choice: 'nope'"),
])
def test_parse_args_refuses_an_incomplete_pair_request(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_record.parse_args(argv, ["tomo-thermal", "design-sweep"])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_parse_args_reads_a_pair_request():
    args = bench_record.parse_args(
        ["trim", "--against", "5f9c283", "--pairs", "10", "--workload", "tomo-thermal",
         "--seed", "7"], ["tomo-thermal", "design-sweep"])
    assert (args.label, args.against, args.pairs, args.workload, args.seed) == (
        "trim", "5f9c283", 10, "tomo-thermal", 7)
    assert bench_record.parse_args(["one"], ["tomo-thermal"]).seed == 1
