"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""
import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402
import run  # noqa: E402
from ocsnet import simulator  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    setup = pipeline.set_up("smoke", 1)
    op = pipeline.run_op(setup, 1, tmp_path_factory.mktemp("trace") / "trace.csv")
    return setup, op


@pytest.mark.parametrize("trace, metrics", [(0, pipeline.END_TO_END), (1, pipeline.PER_LAYER)])
def test_smoke_workload_runs_the_whole_pipeline(trace, metrics):
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "0.1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(metrics)
    for name, m in result["metrics"].items():
        assert m["unit"] == metrics[name]
        assert isinstance(m["value"], (int, float)), name


def test_smoke_operation_passes_and_uses_every_plane(smoke):
    setup, op = smoke
    assert op.problems == []
    stats = pipeline.simulated_stats(setup, op)
    for plane in pipeline.PLANES:
        assert stats[f"simulator.records.{plane}"] > 0
    assert sum(stats[f"simulator.bits.{p}"] for p in pipeline.PLANES) == pytest.approx(
        op.result.injected_bits, rel=1e-12)


@pytest.mark.parametrize("tamper", [
    lambda r: dataclasses.replace(r, completed=False),
    lambda r: dataclasses.replace(r, records=r.records[:-1]),
    lambda r: dataclasses.replace(r, delivered_bits=r.delivered_bits * (1 - 1e-6)),
    lambda r: dataclasses.replace(r, delivered_bits=float("nan")),
])
def test_checker_fails_on_a_tampered_result(smoke, tamper):
    setup, op = smoke
    assert pipeline.check(setup.check, len(op.flows), op.result, op.analytic_s) == []
    assert pipeline.check(setup.check, len(op.flows), tamper(op.result), op.analytic_s)


@pytest.mark.parametrize("kind, sim_over_model, ok", [
    ("rotor-oracle", 1.05, True), ("rotor-oracle", 1.2, False),
    ("rotor-oracle", 0.98, False), ("hybrid-bound", 1.09, True),
    ("hybrid-bound", 1.11, False), ("hybrid-bound", float("nan"), False),
])
def test_criterion_checks_bound_the_model_ratio(smoke, kind, sim_over_model, ok):
    _, op = smoke
    result = dataclasses.replace(op.result, dct_s=sim_over_model * 0.5)
    problems = pipeline.check(kind, len(op.flows), result, 0.5)
    assert (problems == []) is ok, problems


def test_fingerprint_repeats_per_seed_and_changes_with_it(tmp_path, smoke):
    setup, op = smoke
    again = pipeline.run_op(setup, 1, tmp_path / "trace.csv")
    other = pipeline.run_op(pipeline.set_up("smoke", 2), 2, tmp_path / "trace.csv")
    assert pipeline.fingerprint(again.result) == pipeline.fingerprint(op.result)
    assert pipeline.fingerprint(other.result) != pipeline.fingerprint(op.result)


def test_tracing_records_nested_spans_and_restores_schedule(tmp_path):
    tracer = pipeline.Tracer()
    tracer.op = 0
    setup = pipeline.set_up("smoke", 1)
    counts = Counter()
    original = simulator.Simulator.schedule
    with pipeline.count_events(counts):
        op = pipeline.run_op(setup, 1, tmp_path / "trace.csv", tracer)
    assert simulator.Simulator.schedule is original
    names = {s["name"]: s for s in tracer.spans}
    root = tracer.spans.index(names["operation"])
    assert names["traffic.generate"]["parent"] == root
    assert names["simulator.run_batch"]["parent"] == root
    assert counts["arrival"] == len(op.flows)
    assert all(s["start"] <= s["end"] for s in tracer.spans)


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == pipeline.PER_LAYER


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
