#!/usr/bin/env python3
"""Serving benchmark: throughput + tail latency, batching on vs off.

Starts one :class:`repro.serve.server.PlacementServer` over the small
Dublin scenario and drives it with a thread pool of synchronous
:class:`repro.serve.client.ServeClient` workers posting hot ``evaluate``
queries (each request scores one placement drawn from a small pool, the
workload micro-batching is built for).  Every concurrency level runs
twice — micro-batching enabled (2 ms window) and disabled
(``max_batch=1``, every request its own kernel call) — and the snapshot
records per-level throughput and p50/p95/p99 latency plus the server's
batching tallies, so the coalescing win is measured, not asserted.

A third tier benchmarks the supervised fleet: N in-process workers
behind the routing front, driven at high concurrency with one worker
killed mid-run, so the recorded throughput includes failure detection,
retry, and respawn.

A fourth tier (``shm_fleet``) is the scale-out proof: N **real
subprocess** workers attach one shared-memory published artifact
zero-copy (no npz read, no private array copies) behind a front running
per-shard micro-batching, driven at c=256.  It records throughput and
tails, each worker's restore mode/latency/memory read back through
worker health, a direct attach-vs-load latency comparison, and the
copy-count evidence: total private-memory growth across N workers
versus the artifact's segment size.

A fifth tier (``stream``) measures the streaming pipeline end to end:
the windowed estimator's fold rate over a synthetic closed-journey
feed, the incremental artifact patch against a full recompile of the
same deltas (bit-identical digests, median seconds each), and the
swap-induced p99 blip — a live fleet driven in a baseline window and
again while a background thread hot-swaps the default shard
continuously.  Writes ``BENCH_serve.json``::

    {
      "schema": "rapflow-bench-serve/5",
      "git_sha": ..., "git_dirty": false, "scale": "small",
      "levels": [{"concurrency", "mode", "requests", "throughput_rps",
                  "p50_ms", "p95_ms", "p99_ms", "errors", "batching"}],
      "batching_speedup": {"8": 1.7, ...},  # batched/unbatched throughput
      "fleet": {"workers", "concurrency", "throughput_rps", "p99_ms",
                "per_worker": [{"id", "state", "respawns", "p99_ms"}],
                "respawns", "shed_rate", "degraded_rate"},
      "shm_fleet": {"workers", "concurrency", "throughput_rps",
                    "p95_ms", "p99_ms", "artifact_nbytes",
                    "attach_seconds", "load_seconds",
                    "per_worker": [{"restore", ...}],
                    "total_restore_private_delta_bytes", "front_batching",
                    "fleet_metrics": {  # server-side GET /metrics view
                        "latency": {"buckets_ms", "counts", "p95_ms", ...},
                        "workers_latency", "workers_reporting", "counters"}},
      "stream": {"fold": {"journeys_per_s", "deltas_emitted", ...},
                 "refresh": {"patch_seconds", "recompile_seconds",
                             "patch_speedup", "digests_agree"},
                 "swap": {"swaps", "availability", "baseline_p99_ms",
                          "under_swap_p99_ms", "p99_blip_ratio", ...}}
    }

Schema /4 adds ``shm_fleet.fleet_metrics``: the front's fixed-bucket
latency histogram and fleet-aggregated counters read from ``GET
/metrics`` after the timed window, so the snapshot carries server-side
percentiles alongside the bench's client-side ones (they must agree
within one histogram bucket — the schema test enforces it).

Schema /5 adds the ``stream`` tier: the estimator fold rate, the
incremental-patch vs full-recompile refresh timing, and the hot-swap
p99 blip measured against a no-swap baseline window.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py [--out BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import Scenario, utility_by_name  # noqa: E402
from repro.experiments import (  # noqa: E402
    LocationClass,
    TraceProvider,
    classify_intersections,
    locations_of_class,
)
from repro.serve import QueryEngine, ScenarioArtifact, ServerThread  # noqa: E402


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
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def git_dirty() -> bool:
    """True when the working tree differs from HEAD at run time.

    A snapshot stamped with a clean sha but produced from a dirty tree
    misattributes the numbers to the wrong code; recording the flag
    makes the provenance honest either way.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return bool(out.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return True


def build_scenario(scale: str, seed: int = 42) -> Scenario:
    provider = TraceProvider(scale=scale)
    bundle = provider.get("dublin")
    classes = classify_intersections(bundle.network, bundle.flows)
    import random

    shop = random.Random(seed).choice(
        locations_of_class(classes, LocationClass.CITY)
    )
    return Scenario(
        bundle.network, bundle.flows, shop, utility_by_name("linear", 20_000.0)
    )


def hot_placements(
    engine: QueryEngine, pool_size: int, k: int
) -> List[List[object]]:
    """A pool of plausible placements built from the top-gain sites."""
    response = engine.handle(
        {"kind": "top_gains", "placement": [], "limit": pool_size + k}
    )
    sites = [entry["site"] for entry in response["gains"]]
    if len(sites) < k:
        sites = sites + [
            entry if not isinstance(entry, tuple) else {"t": list(entry)}
            for entry in engine.scenario.candidate_sites[: k - len(sites)]
        ]
    pool = []
    for start in range(max(1, min(pool_size, len(sites)))):
        placement = [sites[(start + j) % len(sites)] for j in range(k)]
        pool.append(placement)
    return pool


def run_level(
    port: int,
    concurrency: int,
    requests: int,
    pool: Sequence[Sequence[object]],
    keep_latencies: bool = False,
) -> Dict[str, object]:
    """Drive one concurrency level; returns throughput + tail latencies."""
    from repro.serve import ServeClient

    latencies: List[float] = []
    errors = 0

    def worker(worker_id: int) -> List[float]:
        client = ServeClient("127.0.0.1", port, timeout=30.0)
        mine: List[float] = []
        nonlocal errors
        for i in range(requests // concurrency):
            placement = pool[(worker_id + i) % len(pool)]
            body = {
                "kind": "evaluate",
                "placements": [list(placement)],
            }
            t0 = time.perf_counter()
            try:
                client.query(body)
            except Exception:  # bench: count, keep hammering
                errors += 1
                continue
            mine.append(time.perf_counter() - t0)
        return mine

    t_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as executor:
        for result in executor.map(worker, range(concurrency)):
            latencies.extend(result)
    elapsed = time.perf_counter() - t_start
    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(p * len(latencies)))
        return latencies[index] * 1000.0

    level: Dict[str, object] = {
        "concurrency": concurrency,
        "requests": len(latencies),
        "errors": errors,
        "elapsed_s": elapsed,
        "throughput_rps": len(latencies) / elapsed if elapsed else 0.0,
        "p50_ms": pct(0.50),
        "p95_ms": pct(0.95),
        "p99_ms": pct(0.99),
        "mean_ms": statistics.fmean(latencies) * 1000 if latencies else 0.0,
    }
    if keep_latencies:
        level["_latencies"] = latencies
    return level


def run_raw_level(
    port: int,
    concurrency: int,
    requests: int,
    pool: Sequence[Sequence[object]],
) -> Dict[str, object]:
    """Drive one concurrency level with a raw-socket asyncio generator.

    ``run_level``'s thread-pool driver burns far more CPU per request
    than the serving plane's own hot path (``http.client`` framing,
    header re-parsing, a JSON round-trip, thread switching).  The driver
    shares cores with the front and the workers, so on a small box that
    overhead is charged *against* the plane being measured.  This driver
    prebuilds one HTTP request byte-string per hot placement and runs
    every connection on a single asyncio loop — tens of microseconds per
    request — so at c=256 the plane, not the driver, is what saturates.

    Correctness is still spot-checked: the first response on every
    connection is fully JSON-decoded and must carry a ``totals`` list;
    later responses are only framed (status line + ``Content-Length``).
    """
    from repro.serve.engine import encode_site

    payloads: List[bytes] = []
    for placement in pool:
        body = json.dumps(
            {
                "kind": "evaluate",
                "placements": [[encode_site(site) for site in placement]],
            }
        ).encode("utf-8")
        head = (
            "POST /query HTTP/1.1\r\n"
            "Host: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        payloads.append(head + body)

    latencies: List[float] = []
    errors = 0
    per_connection = requests // concurrency

    async def connection(conn_id: int) -> None:
        nonlocal errors
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            errors += per_connection
            return
        mine: List[float] = []
        try:
            for i in range(per_connection):
                payload = payloads[(conn_id + i) % len(payloads)]
                t0 = time.perf_counter()
                writer.write(payload)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                marker = head.index(b"Content-Length: ") + 16
                length = int(head[marker:head.index(b"\r", marker)])
                raw = await reader.readexactly(length)
                elapsed = time.perf_counter() - t0
                if head[9:12] != b"200":
                    errors += 1
                    continue
                if i == 0:  # correctness canary, once per connection
                    decoded = json.loads(raw)
                    if not isinstance(decoded.get("totals"), list):
                        errors += 1
                        continue
                mine.append(elapsed)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            errors += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        latencies.extend(mine)

    async def drive() -> None:
        await asyncio.gather(
            *(connection(conn_id) for conn_id in range(concurrency))
        )

    t_start = time.perf_counter()
    asyncio.run(drive())
    elapsed = time.perf_counter() - t_start
    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(p * len(latencies)))
        return latencies[index] * 1000.0

    return {
        "concurrency": concurrency,
        "requests": len(latencies),
        "errors": errors,
        "elapsed_s": elapsed,
        "throughput_rps": len(latencies) / elapsed if elapsed else 0.0,
        "p50_ms": pct(0.50),
        "p95_ms": pct(0.95),
        "p99_ms": pct(0.99),
        "mean_ms": statistics.fmean(latencies) * 1000 if latencies else 0.0,
    }


def run_fleet_tier(
    artifact: ScenarioArtifact,
    pool: Sequence[Sequence[object]],
    workers: int,
    concurrency: int,
    requests: int,
) -> Dict[str, object]:
    """The fleet tier: N supervised workers, one mid-run worker kill.

    Drives the fleet front at high concurrency in two halves, killing
    one worker between them, so the recorded numbers include detection,
    retry, and respawn — not just the happy path.  Records per-worker
    tail latency plus respawn, shed, and degraded rates.
    """
    from repro.serve import (
        FleetConfig,
        FleetThread,
        PlacementFleet,
        RetryPolicy,
        local_worker_factory,
    )

    config = FleetConfig(
        workers=workers,
        max_inflight=max(128, 2 * concurrency),
        timeout=10.0,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.3,
        max_missed=2,
        respawn_backoff=0.05,
        respawn_backoff_cap=0.5,
        retry=RetryPolicy(retries=3, backoff=0.02, backoff_cap=0.2),
        seed=0,
    )
    fleet = PlacementFleet(
        local_worker_factory(lambda: QueryEngine(artifact, cache_size=0)),
        digest=artifact.digest,
        config=config,
    )
    with FleetThread(fleet) as handle:
        run_level(  # warm-up outside the timed window
            handle.port, concurrency, concurrency * 2, pool
        )
        first = run_level(
            handle.port, concurrency, requests // 2, pool,
            keep_latencies=True,
        )
        fleet.worker_handle(0).kill()
        second = run_level(
            handle.port, concurrency, requests - requests // 2, pool,
            keep_latencies=True,
        )
        client = handle.client()
        deadline = time.perf_counter() + 10.0
        health = client.healthz()
        while (
            health.get("respawns", 0) < 1
            and time.perf_counter() < deadline
        ):
            time.sleep(0.1)
            health = client.healthz()

    latencies = sorted(first["_latencies"] + second["_latencies"])

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))] * 1000.0

    elapsed = float(first["elapsed_s"]) + float(second["elapsed_s"])
    requests_doc = health["requests"]
    tiers = health["admission"]["tiers"]
    shed_total = sum(int(doc["shed"]) for doc in tiers.values())
    served = int(requests_doc["served"])
    attempted = served + int(requests_doc["rejected"])
    return {
        "mode": "fleet",
        "workers": workers,
        "concurrency": concurrency,
        "requests": len(latencies),
        "errors": int(first["errors"]) + int(second["errors"]),
        "elapsed_s": elapsed,
        "throughput_rps": len(latencies) / elapsed if elapsed else 0.0,
        "p50_ms": pct(0.50),
        "p95_ms": pct(0.95),
        "p99_ms": pct(0.99),
        "per_worker": [
            {
                "id": doc["id"],
                "state": doc["state"],
                "respawns": doc["respawns"],
                "p95_ms": (doc["p95"] or 0.0) * 1000.0,
                "p99_ms": (doc["p99"] or 0.0) * 1000.0,
            }
            for doc in health["workers"]
        ],
        "respawns": int(health["respawns"]),
        "retries": int(requests_doc["retries"]),
        "shed_rate": shed_total / attempted if attempted else 0.0,
        "degraded_rate": (
            int(requests_doc["degraded"]) / served if served else 0.0
        ),
        "corrupt_detected": int(requests_doc["corrupt_detected"]),
    }


def run_shm_fleet_tier(
    artifact: ScenarioArtifact,
    pool: Sequence[Sequence[object]],
    workers: int,
    concurrency: int,
    requests: int,
) -> Dict[str, object]:
    """The scale-out tier: subprocess workers over one shm segment.

    Publishes the artifact into a shared-memory pool once, spawns
    ``workers`` real ``python -m repro serve --shm-attach`` subprocesses
    that map it zero-copy, and drives the front (per-shard
    micro-batching on) at ``concurrency``.  Also times attach vs
    disk-load directly, and reads each worker's restore record back
    through the front's shard health — the private-memory deltas across
    N workers against the segment size are the copy-count proof.
    """
    import tempfile

    from repro.serve import (
        ArtifactStore,
        FleetConfig,
        FleetThread,
        PlacementFleet,
        RetryPolicy,
        process_worker_factory,
    )
    from repro.serve.shm import ShmArtifactPool

    shm_root = tempfile.mkdtemp(prefix="rapflow-bench-shm-")
    ready_dir = tempfile.mkdtemp(prefix="rapflow-bench-ready-")
    cache_dir = tempfile.mkdtemp(prefix="rapflow-bench-cache-")
    shm_pool = ShmArtifactPool(shm_root)
    manifest = shm_pool.publish(artifact)

    # Attach-vs-load latency, measured in this process: zero-copy map
    # of the published segment against a full npz read of the same
    # artifact from the disk cache.
    artifact.save(cache_dir)
    t0 = time.perf_counter()
    attached = ScenarioArtifact.attach(shm_pool, artifact.digest)
    attach_seconds = time.perf_counter() - t0
    del attached
    shm_pool.detach(artifact.digest)
    t0 = time.perf_counter()
    ArtifactStore(cache_dir).load(artifact.digest)
    load_seconds = time.perf_counter() - t0

    serve_args = [
        "--shm-attach", artifact.digest,
        "--shm-dir", shm_root,
        "--max-inflight", str(max(256, concurrency)),
        "--timeout", "30.0",
        "--batch-window", "0.002",
        "--max-batch", "512",
        "--cache-size", "0",
    ]
    config = FleetConfig(
        workers=workers,
        max_inflight=max(512, 2 * concurrency),
        timeout=30.0,
        heartbeat_interval=0.25,
        heartbeat_timeout=2.0,
        max_missed=4,
        retry=RetryPolicy(retries=3, backoff=0.02, backoff_cap=0.2),
        front_batch_window=0.002,
        front_max_batch=512,
        front_bypass=4,
        seed=0,
    )
    try:
        fleet = PlacementFleet(
            process_worker_factory(serve_args, ready_dir, start_timeout=60.0),
            digest=artifact.digest,
            config=config,
        )
        with FleetThread(fleet) as handle:
            run_raw_level(  # warm-up outside the timed window
                handle.port, min(32, concurrency), concurrency, pool
            )
            level = run_raw_level(handle.port, concurrency, requests, pool)
            # The supervisor fills worker health (restore provenance)
            # from its heartbeat probes; give it a beat to catch up.
            client = handle.client()
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                health = client.healthz()
                docs = health["shards"][artifact.digest]["workers"]
                if all(doc.get("health") for doc in docs):
                    break
                time.sleep(0.1)
            # Server-side histograms from GET /metrics: the front's own
            # latency buckets plus the bucket-merged worker view — the
            # percentiles the operator would see, measured inside the
            # serving path rather than at the bench's client threads.
            metrics_doc = client.metrics()
        shard = health["shards"][artifact.digest]
        per_worker = []
        restore_deltas = []
        for doc in shard["workers"]:
            worker_health = doc.get("health") or {}
            restore = worker_health.get("restore") or {}
            per_worker.append(
                {
                    "id": doc["id"],
                    "state": doc["state"],
                    "respawns": doc["respawns"],
                    "restore": restore,
                }
            )
            if isinstance(restore.get("private_delta_bytes"), int):
                restore_deltas.append(restore["private_delta_bytes"])
    finally:
        shm_pool.unlink_all()
    return {
        "mode": "shm_fleet",
        "workers": workers,
        "concurrency": concurrency,
        "requests": level["requests"],
        "errors": level["errors"],
        "elapsed_s": level["elapsed_s"],
        "throughput_rps": level["throughput_rps"],
        "p50_ms": level["p50_ms"],
        "p95_ms": level["p95_ms"],
        "p99_ms": level["p99_ms"],
        "artifact_nbytes": manifest.nbytes,
        "attach_seconds": attach_seconds,
        "load_seconds": load_seconds,
        "per_worker": per_worker,
        # Sum of restore-time private-memory growth across N workers:
        # ~1x the segment size (shared mapping), not N copies.
        "total_restore_private_delta_bytes": sum(restore_deltas),
        "front_batching": shard.get("front_batching"),
        "respawns": int(health["respawns"]),
        "fleet_metrics": {
            "schema": metrics_doc["schema"],
            "latency": metrics_doc["latency"],
            "workers_latency": metrics_doc["workers_latency"],
            "workers_reporting": metrics_doc["workers_reporting"],
            "counters": metrics_doc["counters"],
        },
    }


def synthetic_journeys(
    routes: Sequence[str], journeys: int, window: float
) -> List[object]:
    """A deterministic feed of closed journeys with varying window counts.

    The number of journeys per window cycles, so consecutive windows
    carry different per-route counts and the estimator emits real
    (non-zero) deltas — a constant feed would fold to silence and the
    measured rate would skip the emission path entirely.
    """
    from repro.stream import ClosedJourney

    base_slots = max(4, 4 * len(routes))
    events: List[object] = []
    window_index = 0
    while len(events) < journeys:
        slots = base_slots + (window_index % (len(routes) + 1))
        for slot in range(slots):
            if len(events) >= journeys:
                break
            route = routes[slot % len(routes)]
            end = window_index * window + (slot + 1) * window / (slots + 1)
            events.append(
                ClosedJourney(
                    bus_id=f"bus-{slot:03d}",
                    route=route,
                    segment_id=f"{route}#{window_index:03d}",
                    start_time=max(0.0, end - 600.0),
                    end_time=end,
                    samples=20,
                )
            )
        window_index += 1
    return events


def run_stream_tier(
    artifact: ScenarioArtifact,
    pool: Sequence[Sequence[object]],
    workers: int,
    concurrency: int,
    requests: int,
    journeys: int,
    refresh_reps: int,
) -> Dict[str, object]:
    """The streaming tier: fold rate, patch-vs-recompile, swap blip.

    Three measurements back the streaming pipeline's claims:

    1. **Fold rate** — a synthetic feed of closed journeys over the
       artifact's route labels folds through a
       :class:`~repro.stream.WindowedEstimator`; records journeys/s
       and the deltas emitted.
    2. **Patch vs recompile** — the same traffic deltas applied via
       :class:`~repro.stream.StreamRefresher` in both modes.  The
       digests must agree (bit-identity); the snapshot records the
       median seconds of each and the incremental speedup.
    3. **Swap blip** — a live fleet under load, measured in a baseline
       window and again while a background thread hot-swaps the
       default shard continuously; the p99 of both windows and their
       ratio quantify the swap-induced tail-latency blip.
    """
    import threading

    from repro.serve import (
        FleetConfig,
        FleetThread,
        PlacementFleet,
        RetryPolicy,
        local_worker_factory,
    )
    from repro.stream import StreamRefresher, TrafficDelta, WindowedEstimator

    routes = [
        flow.label for flow in artifact.scenario.flows if flow.label
    ][:8]
    if not routes:
        raise RuntimeError("stream tier needs labeled flows to map routes")
    passengers = 25.0

    # --- 1. fold rate -------------------------------------------------
    window = 3600.0
    events = synthetic_journeys(routes, journeys, window)
    estimator = WindowedEstimator(window)
    deltas_emitted = 0
    t0 = time.perf_counter()
    for event in events:
        deltas_emitted += len(estimator.observe(event))
    deltas_emitted += len(estimator.drain())
    fold_seconds = time.perf_counter() - t0
    fold = {
        "journeys": len(events),
        "routes": len(routes),
        "seconds": fold_seconds,
        "journeys_per_s": (
            len(events) / fold_seconds if fold_seconds else 0.0
        ),
        "deltas_emitted": deltas_emitted,
    }

    # --- 2. patch vs recompile ----------------------------------------
    refresh_deltas = [
        TrafficDelta(
            route=route, count=index + 2,
            window_start=0.0, window_end=window,
        )
        for index, route in enumerate(routes[:3])
    ]
    patch_times: List[float] = []
    recompile_times: List[float] = []
    digests: Dict[str, str] = {}
    for mode, times in (
        ("patch", patch_times), ("recompile", recompile_times)
    ):
        for _ in range(refresh_reps):
            refresher = StreamRefresher(
                artifact, passengers_per_bus=passengers
            )
            result = refresher.refresh(refresh_deltas, mode=mode)
            if not result.changed:
                raise RuntimeError("stream tier refresh produced no change")
            times.append(result.seconds)
            digests[mode] = result.new_digest
    flows_changed = len(refresh_deltas)
    patch_seconds = statistics.median(patch_times)
    recompile_seconds = statistics.median(recompile_times)
    refresh = {
        "reps": refresh_reps,
        "flows_changed": flows_changed,
        "patch_seconds": patch_seconds,
        "recompile_seconds": recompile_seconds,
        "patch_speedup": (
            recompile_seconds / patch_seconds if patch_seconds else 0.0
        ),
        "digests_agree": digests["patch"] == digests["recompile"],
    }

    # --- 3. swap-induced p99 blip -------------------------------------
    def factory_for(version: ScenarioArtifact):
        return local_worker_factory(
            lambda: QueryEngine(version, cache_size=0)
        )

    config = FleetConfig(
        workers=workers,
        max_inflight=max(128, 2 * concurrency),
        timeout=10.0,
        retry=RetryPolicy(retries=3, backoff=0.02, backoff_cap=0.2),
        seed=0,
    )
    fleet = PlacementFleet(
        factory_for(artifact), digest=artifact.digest, config=config
    )
    stop = threading.Event()
    swap_seconds: List[float] = []

    with FleetThread(fleet) as handle:
        run_level(  # warm-up outside the timed window
            handle.port, concurrency, concurrency * 2, pool
        )
        baseline = run_level(
            handle.port, concurrency, requests // 2, pool,
            keep_latencies=True,
        )

        refresher = StreamRefresher(
            artifact,
            fleet=fleet,
            worker_factory_for=factory_for,
            passengers_per_bus=passengers,
        )

        def flipper() -> None:
            flip = 0
            while not stop.is_set():
                result = refresher.refresh(
                    [
                        TrafficDelta(
                            route=routes[0],
                            count=1 if flip % 2 == 0 else -1,
                            window_start=window * flip,
                            window_end=window * (flip + 1),
                        )
                    ]
                )
                if result.swap is not None:
                    swap_seconds.append(float(result.swap["seconds"]))
                flip += 1
                stop.wait(0.02)

        swapper = threading.Thread(target=flipper, name="bench-swapper")
        swapper.start()
        try:
            under_swap = run_level(
                handle.port, concurrency, requests - requests // 2, pool,
                keep_latencies=True,
            )
        finally:
            stop.set()
            swapper.join(timeout=60.0)

    attempted = int(baseline["requests"]) + int(baseline["errors"]) + int(
        under_swap["requests"]
    ) + int(under_swap["errors"])
    errors = int(baseline["errors"]) + int(under_swap["errors"])
    baseline_p99 = float(baseline["p99_ms"])
    swap = {
        "workers": workers,
        "concurrency": concurrency,
        "requests": int(baseline["requests"]) + int(under_swap["requests"]),
        "errors": errors,
        "availability": (
            1.0 - errors / attempted if attempted else 0.0
        ),
        "swaps": len(swap_seconds),
        "swap_seconds_p50": (
            statistics.median(swap_seconds) if swap_seconds else 0.0
        ),
        "baseline_throughput_rps": baseline["throughput_rps"],
        "under_swap_throughput_rps": under_swap["throughput_rps"],
        "baseline_p99_ms": baseline_p99,
        "under_swap_p99_ms": under_swap["p99_ms"],
        "p99_blip_ratio": (
            float(under_swap["p99_ms"]) / baseline_p99
            if baseline_p99 else 0.0
        ),
    }
    return {"mode": "stream", "fold": fold, "refresh": refresh, "swap": swap}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_serve.json"))
    parser.add_argument(
        "--requests", type=int, default=400,
        help="requests per (level, mode) pair (default: 400)",
    )
    parser.add_argument(
        "--levels", default="1,2,4,8,16",
        help="comma-separated concurrency levels",
    )
    parser.add_argument("--pool", type=int, default=4,
                        help="hot-placement pool size")
    parser.add_argument("--k", type=int, default=5,
                        help="sites per evaluated placement")
    parser.add_argument("--scale", default="paper",
                        choices=("paper", "small"))
    parser.add_argument("--window", type=float, default=0.001,
                        help="batching window in seconds for batched mode")
    parser.add_argument("--fleet-workers", type=int, default=4,
                        help="worker replicas in the fleet tier")
    parser.add_argument("--fleet-concurrency", type=int, default=64,
                        help="client threads driving the fleet tier")
    parser.add_argument("--fleet-requests", type=int, default=1600,
                        help="total requests in the fleet tier")
    parser.add_argument("--shm-workers", type=int, default=4,
                        help="subprocess workers in the shm_fleet tier")
    parser.add_argument("--shm-concurrency", type=int, default=256,
                        help="client threads driving the shm_fleet tier")
    parser.add_argument("--shm-requests", type=int, default=8192,
                        help="total requests in the shm_fleet tier")
    parser.add_argument("--stream-workers", type=int, default=2,
                        help="worker replicas in the stream tier's fleet")
    parser.add_argument("--stream-concurrency", type=int, default=16,
                        help="client threads driving the stream tier")
    parser.add_argument(
        "--stream-requests", type=int, default=800,
        help="total requests across the stream tier's two windows",
    )
    parser.add_argument(
        "--stream-journeys", type=int, default=20000,
        help="synthetic closed journeys folded through the estimator",
    )
    parser.add_argument(
        "--stream-refresh-reps", type=int, default=5,
        help="repetitions of the patch/recompile refresh timing",
    )
    args = parser.parse_args()
    levels = [int(v) for v in args.levels.split(",") if v.strip()]

    scenario = build_scenario(args.scale)
    artifact = ScenarioArtifact.compile(scenario)
    pool = hot_placements(QueryEngine(artifact), args.pool, args.k)
    print(
        f"artifact {artifact.digest[:12]}: {artifact.stats['incidences']} "
        f"incidences; pool of {len(pool)} hot placements (k={args.k})"
    )

    results: List[Dict[str, object]] = []
    throughput: Dict[str, Dict[int, float]] = {"batched": {}, "unbatched": {}}
    for mode, batch_kwargs in (
        ("batched", {"batch_window": args.window, "max_batch": 256}),
        ("unbatched", {"batch_window": 0.0, "max_batch": 1}),
    ):
        for concurrency in levels:
            # Fresh engine per run: the result LRU must not serve one
            # mode's numbers to the other (identical requests recur by
            # design in this workload), and batching tallies start at 0.
            engine = QueryEngine(artifact, cache_size=0)
            with ServerThread(
                engine, max_inflight=max(64, 4 * concurrency), **batch_kwargs
            ) as handle:
                # One warm-up round outside the timed window.
                run_level(handle.port, concurrency, concurrency * 4, pool)
                level = run_level(
                    handle.port, concurrency, args.requests, pool
                )
                level["mode"] = mode
                level["batching"] = handle.client().healthz()["batching"]
                results.append(level)
                throughput[mode][concurrency] = float(
                    level["throughput_rps"]
                )
                print(
                    f"{mode:>9} c={concurrency:<3} "
                    f"{level['throughput_rps']:8.1f} req/s  "
                    f"p50={level['p50_ms']:6.2f}ms "
                    f"p95={level['p95_ms']:6.2f}ms "
                    f"p99={level['p99_ms']:6.2f}ms "
                    f"(errors={level['errors']})"
                )

    fleet_tier = run_fleet_tier(
        artifact,
        pool,
        workers=args.fleet_workers,
        concurrency=args.fleet_concurrency,
        requests=args.fleet_requests,
    )
    print(
        f"    fleet c={fleet_tier['concurrency']:<3} "
        f"{fleet_tier['throughput_rps']:8.1f} req/s  "
        f"p50={fleet_tier['p50_ms']:6.2f}ms "
        f"p99={fleet_tier['p99_ms']:6.2f}ms "
        f"(workers={fleet_tier['workers']}, "
        f"respawns={fleet_tier['respawns']}, "
        f"errors={fleet_tier['errors']})"
    )

    shm_tier = run_shm_fleet_tier(
        artifact,
        pool,
        workers=args.shm_workers,
        concurrency=args.shm_concurrency,
        requests=args.shm_requests,
    )
    print(
        f"shm_fleet c={shm_tier['concurrency']:<3} "
        f"{shm_tier['throughput_rps']:8.1f} req/s  "
        f"p95={shm_tier['p95_ms']:6.2f}ms "
        f"p99={shm_tier['p99_ms']:6.2f}ms "
        f"(workers={shm_tier['workers']}, errors={shm_tier['errors']}, "
        f"attach={shm_tier['attach_seconds'] * 1000:.1f}ms vs "
        f"load={shm_tier['load_seconds'] * 1000:.1f}ms, "
        f"restore-growth={shm_tier['total_restore_private_delta_bytes']}B "
        f"over a {shm_tier['artifact_nbytes']}B segment)"
    )

    stream_tier = run_stream_tier(
        artifact,
        pool,
        workers=args.stream_workers,
        concurrency=args.stream_concurrency,
        requests=args.stream_requests,
        journeys=args.stream_journeys,
        refresh_reps=args.stream_refresh_reps,
    )
    print(
        f"   stream fold {stream_tier['fold']['journeys_per_s']:10.0f} "
        f"journeys/s ({stream_tier['fold']['deltas_emitted']} deltas); "
        f"patch={stream_tier['refresh']['patch_seconds'] * 1000:.1f}ms vs "
        f"recompile={stream_tier['refresh']['recompile_seconds'] * 1000:.1f}ms "
        f"({stream_tier['refresh']['patch_speedup']:.1f}x); "
        f"swaps={stream_tier['swap']['swaps']} "
        f"p99 {stream_tier['swap']['baseline_p99_ms']:.2f}ms -> "
        f"{stream_tier['swap']['under_swap_p99_ms']:.2f}ms "
        f"(blip {stream_tier['swap']['p99_blip_ratio']:.2f}x, "
        f"errors={stream_tier['swap']['errors']})"
    )

    speedup = {
        str(c): throughput["batched"][c] / throughput["unbatched"][c]
        for c in levels
        if throughput["unbatched"].get(c)
    }
    snapshot = {
        "schema": "rapflow-bench-serve/5",
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "scale": args.scale,
        "batch_window_s": args.window,
        "requests_per_level": args.requests,
        "pool_size": len(pool),
        "placement_k": args.k,
        "levels": results,
        "batching_speedup": speedup,
        "fleet": fleet_tier,
        "shm_fleet": shm_tier,
        "stream": stream_tier,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out_path}")
    for concurrency, ratio in sorted(
        ((int(c), r) for c, r in speedup.items())
    ):
        print(f"  batching speedup @ c={concurrency:<3}: {ratio:5.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
