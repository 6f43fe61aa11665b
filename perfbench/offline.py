"""Runner for the offline workloads (``paper-eval`` and ``grid-build``).

A run generates the inputs, then launches one pass at a time, each in a
fresh process (``offline_round.py``), while another pass still fits in
``--seconds``.  Every time is in seconds at the reference speed (see
``common.SpeedLog``): the machine this was sized on runs the same work
up to ~1.8x slower for stretches of seconds to minutes, and the program
slows down in step with the benchmark's reference work timed between
units.  Every end-to-end time is a sum of per-unit medians across the
passes (a unit is one city's ingest, one panel shop draw, or one
grid-build stage group).  With ``--trace 1`` the passes alternate
untraced and traced: the per-layer numbers come from the traced passes
and the tracing overhead is the ratio of the two kinds' unit times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import grid_build
import paper_eval
from common import (
    BENCH_DIR,
    REFERENCE_S,
    WORK,
    Result,
    median,
    percentile,
    reference_seconds,
    tail_percentile,
)

MODULES = {"paper-eval": paper_eval, "grid-build": grid_build}
#: Spans that only group others: their self time is the benchmark's own
#: loop overhead, which the layer-coverage figure counts as unattributed.
CONTAINERS = ("pass", "ingest", "eval.general", "eval.manhattan", "repetition")
ROUND_TIMEOUT_S = 170.0


def _spawn_round(workload: str, inputs: Path, out: Path, traced: bool, smoke: bool):
    before = reference_seconds()
    spawned = time.monotonic()
    process = subprocess.Popen(
        [
            sys.executable, str(BENCH_DIR / "offline_round.py"), workload,
            str(inputs), str(out), "1" if traced else "0", "1" if smoke else "0",
        ],
        stdout=subprocess.DEVNULL,
    )
    try:
        code = process.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError(f"{workload} pass exceeded {ROUND_TIMEOUT_S:g}s")
    if code != 0:
        raise RuntimeError(f"{workload} pass exited with code {code}")
    doc = json.loads(out.read_text())
    after = doc["setup_reading"] or reference_seconds()
    doc["setup_s"] = (doc["ready"] - spawned) * REFERENCE_S / ((before + after) / 2)
    doc["wall_s"] = time.monotonic() - spawned
    return doc


def run_rounds(workload: str, inputs: Path, seconds: float, trace: bool, smoke: bool):
    """Passes while another fits in ``seconds``: (untraced docs, traced docs)."""
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    started = time.monotonic()

    def another_fits() -> bool:
        done = plain + traced
        if len(done) < 2:
            return True
        longest = max(doc["wall_s"] for doc in done)
        return time.monotonic() - started + longest <= seconds

    while another_fits():
        want_trace = trace and len(traced) < len(plain)
        doc = _spawn_round(
            workload, inputs, inputs / f"round-{len(plain) + len(traced)}.json",
            want_trace, smoke,
        )
        (traced if want_trace else plain).append(doc)
    return plain, traced


def _unit_medians(rounds) -> Dict[str, float]:
    return {unit: median([r["units"][unit] for r in rounds]) for unit in rounds[0]["units"]}


def _group_sum(best: Dict[str, float], groups: Dict[str, str], *names: str) -> float:
    return sum(seconds for unit, seconds in best.items() if groups[unit] in names)


def end_to_end(workload: str, rounds) -> Dict[str, float]:
    best = _unit_medians(rounds)
    groups = rounds[0]["groups"]
    module = MODULES[workload]
    ingest = _group_sum(best, groups, "ingest")
    metrics = {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "ingest_s": ingest,
    }
    plan = sum(seconds for unit, seconds in best.items() if groups[unit] != "ingest")
    # Operations are the workload's unit of work (a panel shop draw, one
    # flow construction), each its median over the passes.
    ops = [median([r["ops"][index] for r in rounds]) for index in range(len(rounds[0]["ops"]))]
    metrics.update(
        plan_s=plan,
        rps=len(ops) / sum(ops),
        p50_ms=1000.0 * percentile(ops, 0.50),
        p99_ms=1000.0 * tail_percentile(ops),
        utility_total=module.utility_total(rounds[0]),
    )
    metrics["refresh_s"] = ingest + plan
    return metrics


def _layer_name(span: str) -> str:
    for prefix in ("algorithms.select.", "manhattan.select."):
        if span.startswith(prefix):
            return prefix.replace("select.", "select_s.") + span[len(prefix):]
    return span + "_s"


def per_layer(workload: str, plain, traced) -> Dict[str, float]:
    """Per-layer figures: each layer's median self time over the traced passes."""
    metrics: Dict[str, float] = {}
    names = sorted({name for r in traced for name in r["self_times"]})
    for name in names:
        if name not in CONTAINERS:
            metrics[_layer_name(name)] = median([r["self_times"].get(name, 0.0) for r in traced])
    coverage = []
    for r in traced:
        unattributed = sum(r["self_times"].get(name, 0.0) for name in CONTAINERS)
        coverage.append(1.0 - unattributed / r["pass_s"])
    metrics["trace.layer_coverage"] = median(coverage)
    # Raw unit times on both sides: the traced passes take no speed readings.
    metrics["trace.overhead_ratio"] = median([r["raw_s"] for r in traced]) / median(
        [r["raw_s"] for r in plain]
    )
    stats = traced[0]["stats"]
    counters = traced[0]["counters"]
    metrics.update(
        {
            "core.scenarios": stats["scenarios"],
            "core.incidences": stats["incidences"],
            "core.placements_scored": stats["placements"],
            "algorithms.gain_evals": counters.get("gain.evaluations", 0),
            "algorithms.celf_pops": counters.get("celf.heap_pops", 0),
        }
    )
    if workload == "paper-eval":
        health = traced[0]["health"]
        best = _unit_medians(plain)
        groups = plain[0]["groups"]
        metrics.update(
            {
                "traces.rows_accepted_frac": health["rows_accepted"] / health["rows_read"],
                "traces.journeys_matched_frac": (
                    health["journeys_matched"] / health["journeys_total"]
                ),
                "eval_general_s": _group_sum(best, groups, "general"),
                "eval_manhattan_s": _group_sum(best, groups, "manhattan"),
            }
        )
    else:
        metrics["core.path_nodes"] = stats["path_nodes"]
        metrics["serve.artifact_bytes"] = stats["artifact_bytes"]
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    module = MODULES[workload]
    size = module.SMOKE if smoke else module.FULL
    inputs = WORK / f"{workload}-{seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    module.generate(seed, inputs, size)
    plain, traced = run_rounds(workload, inputs, seconds, trace, smoke)
    result = Result()
    result.attempted = sum(len(r["units"]) for r in plain + traced)
    if workload == "paper-eval":
        paper_eval.check(plain + traced, paper_eval.expected_values(inputs, size), result)
    else:
        grid_build.check(plain + traced, result)
    result.metrics.update(end_to_end(workload, plain))
    if trace:
        result.metrics.update(per_layer(workload, plain, traced))
    passes = ", ".join(f"{r['pass_s']:.2f}" for r in plain + traced)
    result.notes.append(
        f"{workload}: {len(plain)} untraced + {len(traced)} traced passes ({passes} s), "
        f"{result.attempted} operations attempted, {result.failed} failed"
    )
    return result
