"""Smoke tests of the benchmark itself, at tiny sizes.

    python -m pytest -q bench/test_bench.py

They check that every workload runs and verifies, that traced self times
add up to the traced wall time, that every metric is reported, that the
tracer survives a missing function, and that the benchmark refuses to run
without the program.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import metrics  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = ops.ROOT
CLI_PROBE = {"interp_start_s": 0.05, "import_s": 1.0, "command_s": 0.1}
#: ops per workload in the tiny runs, picked to keep each test short
TINY = {"panel_sweep": slice(0, 3), "deep_sum": slice(3, 4), "tol_corpus": slice(0, 6),
        "cli_cold": slice(0, 2)}


@pytest.fixture(scope="module")
def bs():
    return ops.load_besselsum()


def _tiny_batch(wl):
    return wl.next_pass()[TINY[wl.name]]


def test_benchmark_json_matches_the_metric_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    mapped = {name for group in metrics.MOVES.values() for name in group["metrics"]}
    assert mapped == set(metrics.PER_LAYER) - {"trace.overhead_frac"}


def test_corpus_is_seeded_and_keeps_its_mix():
    def passes(seed):
        rng = corpus.np.random.default_rng(seed)
        shapes = corpus.tol_shapes()
        return [corpus.tol_pass(rng, i, shapes) for i in range(2)]

    assert passes(5) == passes(5)
    assert passes(5) != passes(6)
    ops_ = [op for batch in passes(5) for op in batch]
    mix = corpus.spec_mix([spec for _s, spec, _t in ops_], [tol for _s, _spec, tol in ops_])
    assert mix["tol_split"] == {"1e-08": 40, "1e-06": 40}
    assert mix["rescaled_share"] == 0.15 and mix["wide_share"] == 0.1
    assert all(reference.analyse(*spec)["valid"] for _s, spec, _t in ops_)
    rng = corpus.np.random.default_rng(5)
    assert corpus.deep_specs(rng) != corpus.deep_specs(rng)
    assert corpus.sweep_pass(corpus.np.random.default_rng(1)) == corpus.sweep_pass(
        corpus.np.random.default_rng(1))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_runs_and_verifies_at_a_tiny_size(bs, name):
    wl = workloads.WORKLOADS[name](bs, 7)
    batch = _tiny_batch(wl)
    records, wall, _ = run.run_ops(wl, 0, passes=[batch])
    outcomes = wl.verify(records)
    assert len(outcomes) == len(batch) and wall > 0
    assert "failed" not in outcomes, [(op.spec, out) for (op, out, _), o
                                      in zip(records, outcomes) if o == "failed"]
    assert wl.mix(records)["passes"] == 1


@pytest.mark.parametrize("name", ["tol_corpus", "cli_cold"])
def test_traced_self_times_add_up_to_the_traced_wall_time(bs, name):
    wl = workloads.WORKLOADS[name](bs, 3)
    batch = _tiny_batch(wl)
    tracer = Tracer()
    tracer.install()
    try:
        records, wall, _ = run.run_ops(wl, 0, tracer, [batch])
    finally:
        tracer.uninstall()
    assert not hasattr(bs.summation.evaluate, "__wrapped__")
    assert tracer.absent == []
    self_s = sum(tracer.self_times()) * 1e-9
    assert min(tracer.self_times()) >= 0
    assert abs(self_s - wall) <= 0.05 * wall + 0.005
    summary = tracer.summary()
    values = metrics.layer_metrics(summary, len(records), 1, 0.0, CLI_PROBE)
    assert set(values) == set(metrics.PER_LAYER)
    assert values["summation.evaluate_calls"] >= (len(batch) if name == "tol_corpus" else 1)
    assert values["specfun.jv_points"] > 0


def test_tracer_reports_a_missing_function_as_absent(bs, monkeypatch):
    monkeypatch.delattr(bs.identity, "beat_frequencies")
    monkeypatch.setattr(bs.identity, "aliased_beat_frequencies", lambda scales: ())
    tracer = Tracer()
    tracer.install()
    try:
        bs.evaluate(bs.make_spec(0, (0.5, 1.5), (0.2, 1.0)), terms=100)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["identity.beat_frequencies"]
    values = metrics.layer_metrics(tracer.summary(), 1, 1, 0.0, CLI_PROBE)
    assert set(values) == set(metrics.PER_LAYER)
    assert values["summation.terms"] == 100


@pytest.mark.parametrize("spec", [
    (0, (1.5,), (0.7,)),
    (-1, (-1.0,), (0.8,)),
    (0, (0.5, 1.5), (0.2, 1.0)),
    (0, (-1.0, 2.0), (0.3, 1.7)),
    (0, (0.3, 0.9), (4.0, 3.0)),
])
def test_closed_forms_agree_with_the_quadrature_oracle(bs, spec):
    value, err = reference.quadrature_oracle(bs, bs.make_spec(*spec))
    assert abs(reference.closed_form(*spec) - value) <= err


def test_closed_forms_of_known_integrals():
    assert math.isclose(reference.closed_form(0, (0.0,), (3.0,)), 1 / 3.0, rel_tol=1e-14)
    assert math.isclose(reference.closed_form(0, (0.5,), (2.0,)),
                        math.sqrt(2 / (math.pi * 2.0)) * math.pi / 2, rel_tol=1e-14)
    assert math.isclose(reference.closed_form(1, (1.5, 1.5), (1.0, 0.5)), 0.5**1.5 / 3.0,
                        rel_tol=1e-13)
    assert reference.closed_form(0, (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)) is None


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    cmd = [sys.executable, "bench/run.py", "--workload", "panel_sweep", "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / "bench" / "results" / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "deep_sum",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
