"""The benchmark's own tests: smoke sizes, and checks that have teeth.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.  The smoke
tests drive ``run.py`` end to end on tiny inputs; the teeth tests feed
each workload's correctness check a deliberately wrong output and assert
that it fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    REFERENCE_S,
    REPO,
    Result,
    SpeedLog,
    Tracer,
    use_checkout_sources,
)

use_checkout_sources()

import fleet_stream  # noqa: E402
import grid_build  # noqa: E402
import paper_eval  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "4", "--trace", str(trace), "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    doc = _run(workload, 0)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert [m["name"] for m in SPEC["end_to_end"]] == list(doc["metrics"])
    assert all(entry["value"] > 0 for entry in doc["metrics"].values())


@pytest.mark.parametrize("workload", ["paper-eval", "fleet-stream"])
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    doc = _run(workload, 1)
    assert doc["correct"]
    metrics = {name: entry["value"] for name, entry in doc["metrics"].items()}
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "paper-eval":
        assert metrics["trace.layer_coverage"] >= 0.9
    else:
        assert metrics["serve.engine_ms"] > 0 and metrics["fleet.workers_spawned"] > 0


def test_prediction_table_names_only_benchmark_metrics():
    table = json.loads((REPO / "perfbench" / "predictions.json").read_text())
    layers = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(table) == layers
    for predictions in table.values():
        for prediction in predictions:
            assert prediction["moves"] in e2e | {"none"}
            assert prediction["workload"] in workloads


def test_speed_log_scales_by_the_readings_around_an_interval():
    log = SpeedLog(enabled=False)
    assert log.scaled(4.0, 6.0) == 2.0
    # The machine ran the reference work at half the reference speed.
    log.readings = [(0.0, 2 * REFERENCE_S), (10.0, 2 * REFERENCE_S)]
    assert log.scaled(4.0, 6.0) == pytest.approx(1.0)
    # A timer reading inside the interval is left out of it.
    log.readings.insert(1, (5.0, 2 * REFERENCE_S))
    log._ticks = [(5.0, 0.5)]
    assert log.scaled(4.0, 6.0) == pytest.approx(0.75)


def test_speed_log_ticks_while_work_runs():
    log = SpeedLog()
    with log.ticking():
        started = time.perf_counter()
        while time.perf_counter() - started < 0.35:
            pass
        ended = time.perf_counter()
    assert len(log.readings) >= 3
    assert 0 < log.scaled(started, ended) < 10 * (ended - started)


# ----------------------------------------------------------------------
# teeth: a wrong output must fail the check
# ----------------------------------------------------------------------
def _offline_pass(module, tmp_path):
    module.generate(5, tmp_path, module.SMOKE)
    loaded = module.load_inputs(tmp_path)
    doc = module.run_pass(tmp_path, loaded, module.SMOKE, Tracer(False), SpeedLog(False))
    return json.loads(json.dumps(doc))  # the JSON round trip a pass report makes


def test_paper_eval_check_fails_on_a_flipped_utility(tmp_path):
    doc = _offline_pass(paper_eval, tmp_path)
    expected = paper_eval.expected_values(tmp_path, paper_eval.SMOKE)
    good = Result()
    paper_eval.check([doc, doc], expected, good)
    assert good.failed == 0
    unit = sorted(expected)[0]
    algorithm = sorted(doc["values"][unit])[0]
    doc["values"][unit][algorithm]["1"] += 1.0
    bad = Result()
    paper_eval.check([doc], expected, bad)
    assert bad.failed == 1


def test_grid_build_check_fails_on_a_flipped_utility_or_digest(tmp_path):
    doc = _offline_pass(grid_build, tmp_path)
    good = Result()
    grid_build.check([doc, doc], good)
    assert good.failed == 0
    flipped = json.loads(json.dumps(doc))
    flipped["totals"][0] = -flipped["totals"][0]
    bad = Result()
    grid_build.check([doc, flipped], bad)
    assert bad.failed == 1
    foreign = dict(doc, digest="0" * 64)
    bad = Result()
    grid_build.check([doc, foreign], bad)
    assert bad.failed == 1


def _fleet_run(first_seen):
    load = fleet_stream.Load([])
    load.first_seen = dict(first_seen)
    host = {
        "initial_digest": "a" * 64,
        "refreshes": [{"digest": "b" * 64, "changed": True}],
        "checks": [[True, "sampled totals match"]],
    }
    return {"host": host, "load": load, "probe": {"totals": [1.0]}}


def test_fleet_stream_check_fails_on_a_foreign_digest():
    good = Result()
    fleet_stream.check(_fleet_run({"a" * 64: 0.0, "b" * 64: 1.0}), good)
    assert good.failed == 0
    bad = Result()
    fleet_stream.check(_fleet_run({"a" * 64: 0.0, "b" * 64: 1.0, "c" * 64: 2.0}), bad)
    assert bad.failed == 1


def test_fleet_stream_check_fails_when_the_host_finds_a_wrong_total():
    run = _fleet_run({"a" * 64: 0.0, "b" * 64: 1.0})
    run["host"]["checks"].append([False, "3 sampled totals on bbbb match the artifact"])
    bad = Result()
    fleet_stream.check(run, bad)
    assert bad.failed == 1
