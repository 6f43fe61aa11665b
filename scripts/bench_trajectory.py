#!/usr/bin/env python3
"""Benchmark-trajectory harness: archive per-bench medians per commit.

Runs the core benchmark files (``benchmarks/bench_algorithms.py`` and
``benchmarks/bench_scaling.py``) under pytest-benchmark at the small
trace scale, extracts the median runtime of every bench, and writes
``BENCH_core.json`` — one snapshot of {bench name, median seconds,
algorithm, git SHA} per invocation — so successive commits accumulate a
performance trajectory that CI can archive and compare.

When pytest-benchmark is unavailable the harness falls back to a
perf_counter timing loop over the greedy variants, marking the
snapshot's ``source`` accordingly.

Every snapshot also carries ``obs_counters``: per-greedy-variant work
counters (gain evaluations, CELF heap pops, lazy-skip ratio) captured
under an :class:`repro.obs.ObsContext`, so algorithmic-work regressions
are visible in the trajectory even when wall-clock medians are noisy.

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py [--out BENCH_core.json]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = (
    "benchmarks/bench_algorithms.py",
    "benchmarks/bench_scaling.py",
)
GREEDY_ALGORITHMS = (
    "greedy-coverage",
    "composite-greedy",
    "marginal-greedy",
    "lazy-greedy",
)


def git_sha() -> str:
    """Current commit SHA (``unknown`` outside a git checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _bench_env(scale: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["RAPFLOW_BENCH_SCALE"] = scale
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def have_pytest_benchmark() -> bool:
    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        return False
    return True


def run_pytest_benchmarks(scale: str) -> List[Dict[str, object]]:
    """Run the bench files under pytest-benchmark; return bench records."""
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *BENCH_FILES,
            "-q",
            "-o",
            "addopts=",
            "--benchmark-min-rounds",
            "7",
            "--benchmark-json",
            str(report),
        ]
        completed = subprocess.run(cmd, cwd=REPO_ROOT, env=_bench_env(scale))
        if completed.returncode != 0:
            raise SystemExit(
                f"benchmark run failed with exit code {completed.returncode}"
            )
        payload = json.loads(report.read_text())
    records: List[Dict[str, object]] = []
    for bench in payload.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        records.append(
            {
                "name": bench["name"],
                "median_seconds": bench["stats"]["median"],
                "algorithm": extra.get("algorithm"),
                "scale": extra.get("scale", scale),
            }
        )
    return records


def _dublin_scenario(scale: str):
    """The shared Dublin bench scenario (packed index pre-warmed)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.core import LinearUtility, Scenario
    from repro.experiments import (
        LocationClass,
        TraceProvider,
        classify_intersections,
        locations_of_class,
    )

    provider = TraceProvider(scale=scale)
    bundle = provider.get("dublin")
    classes = classify_intersections(bundle.network, bundle.flows)
    shop = locations_of_class(classes, LocationClass.CITY)[0]
    scenario = Scenario(
        bundle.network, bundle.flows, shop, LinearUtility(20_000.0)
    )
    scenario.coverage.packed()
    return scenario


def run_fallback_timers(scale: str) -> List[Dict[str, object]]:
    """Minimal stand-in when pytest-benchmark is missing.

    Times only the greedy variants with a perf_counter loop on the same
    Dublin scenario the benchmark module uses.
    """
    scenario = _dublin_scenario(scale)
    from repro.algorithms import algorithm_by_name

    k = min(10, len(scenario.candidate_sites))

    records: List[Dict[str, object]] = []
    for name in GREEDY_ALGORITHMS:
        algorithm = algorithm_by_name(name)
        algorithm.select(scenario, k)  # warm caches
        samples: List[float] = []
        for _ in range(75):
            start = time.perf_counter()
            algorithm.select(scenario, k)
            samples.append(time.perf_counter() - start)
        records.append(
            {
                "name": f"test_algorithm_select_k10[{name}]",
                "median_seconds": statistics.median(samples),
                "algorithm": name,
                "scale": scale,
            }
        )
    return records


def obs_counter_snapshot(scale: str) -> Dict[str, Dict[str, float]]:
    """Per-algorithm observability counters on the shared Dublin scenario.

    Runs each greedy variant once under an
    :class:`repro.obs.ObsContext` and records the work counters — gain
    evaluations, CELF heap pops, lazy refreshes/skips — plus the derived
    ``lazy_skip_ratio`` (fraction of heap candidates a CELF round did
    *not* rescan: ``lazy_skips / (lazy_skips + lazy_refreshes)``).
    """
    scenario = _dublin_scenario(scale)
    from repro import obs
    from repro.algorithms import algorithm_by_name

    k = min(10, len(scenario.candidate_sites))
    snapshot: Dict[str, Dict[str, float]] = {}
    for name in GREEDY_ALGORITHMS:
        algorithm = algorithm_by_name(name)
        with obs.ObsContext(label=f"bench {name}") as ctx:
            algorithm.select(scenario, k)
        counters = ctx.counters
        entry: Dict[str, float] = {
            "iterations": float(counters.get("algorithm.iterations", 0)),
            "gain_evaluations": float(counters.get("gain.evaluations", 0)),
        }
        pops = counters.get("celf.heap_pops", 0)
        if pops:
            refreshes = counters.get("celf.lazy_refreshes", 0)
            skips = counters.get("celf.lazy_skips", 0)
            entry["celf_heap_pops"] = float(pops)
            entry["celf_lazy_refreshes"] = float(refreshes)
            entry["celf_lazy_skips"] = float(skips)
            scanned = skips + refreshes
            if scanned:
                entry["lazy_skip_ratio"] = skips / scanned
        snapshot[name] = entry
    return snapshot


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_core.json"),
        help="output path for the trajectory snapshot",
    )
    parser.add_argument(
        "--scale",
        default=os.environ.get("RAPFLOW_BENCH_SCALE", "small"),
        choices=("small", "paper"),
        help="trace scale to benchmark at (default: small)",
    )
    args = parser.parse_args(argv)

    if have_pytest_benchmark():
        source = "pytest-benchmark"
        records = run_pytest_benchmarks(args.scale)
    else:
        source = "fallback-timer"
        records = run_fallback_timers(args.scale)

    obs_counters = obs_counter_snapshot(args.scale)
    snapshot = {
        "schema": "rapflow-bench-trajectory/2",
        "git_sha": git_sha(),
        "scale": args.scale,
        "source": source,
        "benches": records,
        "obs_counters": obs_counters,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    print(f"wrote {len(records)} bench medians to {out_path}")
    for algorithm, entry in sorted(obs_counters.items()):
        ratio = entry.get("lazy_skip_ratio")
        detail = f", lazy-skip ratio {ratio:.2f}" if ratio is not None else ""
        print(
            f"  {algorithm}: {entry['gain_evaluations']:.0f} gain "
            f"evaluations{detail}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
