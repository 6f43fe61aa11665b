"""``fleet-stream``: the production serving path under load, with live refresh.

Inputs (generated, untimed): the paper-scale Dublin scenario (trace seed
2015, a city-class shop, linear utility with D = 20,000 ft) as a scenario
spec; a GPS feed of five one-hour windows of bus journeys on the
scenario's routes; and a seeded request stream.  The stream draws from
50,000 distinct k = 5 placements by Zipf(1.1) rank and mixes 70%
``evaluate``, 15% ``top_gains``, 10% ``what_if`` and 5% ``place``.

A run is three episodes.  In each, a fresh host process
(``fleet_host.py``) compiles the artifact, publishes it to shared memory
and starts the fleet front over two subprocess workers; the host folds
the feed's windows while the fleet is idle; this process then drives a
closed loop over two keep-alive connections (the machine has two
cores; every process of a run shares one of them, see README.md),
timing every request from send to last byte in steady slices with a
reading of the machine's speed after each, and finally the host's
``StreamRefresher`` patches the artifact and hot-swaps the fleet once
under the same load.  One swap per fleet, and last: every swap leaves
respawn loops running until the fleet shuts down (see README.md,
"Defects found while sizing"), so swaps in one fleet would not be
independent samples and slices after a swap would measure the loops.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import math
import random
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

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

TRACE_SEED = 2015
SHOP_SEED = 42
POOL = 50_000
ZIPF_S = 1.1
MIX = (("evaluate", 0.70), ("top_gains", 0.15), ("what_if", 0.10), ("place", 0.05))
CONNECTIONS = 2
WORKERS = 2
SAMPLE_EVERY = 20
PROBES = 500
PROBE_SEED = 2015
WINDOW_S = 3600.0
HOST_TIMEOUT_S = 60.0
#: Unmeasured load before the steady slices, so connections, caches and
#: the front's batcher are warm.
WARMUP_S = 1.0
#: One steady slice of load between two readings of the machine's speed.
SLICE_S = 0.5
#: How long the load waits, after asking for the swap, for a reply that
#: carries the new digest.
SWAP_TIMEOUT_S = 30.0
#: Round trips to the reference server in one reading, and what a
#: reading takes on the reference machine (with ``REFERENCE_S`` of
#: compute reference, see ``ServingReference``).
REFERENCE_ROUND_TRIPS = 30
SERVING_REFERENCE_S = 0.0040
#: Share of an episode's ``--seconds`` spent in steady slices; set-up,
#: window ingest, warm-up, the swap and the host's shutdown, re-timing
#: and checks take about as long again.
STEADY_SHARE = 0.5


@dataclass(frozen=True)
class Size:
    scale: str
    episodes: int
    pool: int


FULL = Size(scale="paper", episodes=3, pool=POOL)
SMOKE = Size(scale="small", episodes=1, pool=2_000)
#: Journeys per route in a feed window, dealt to the routes in a seeded
#: order, so every window carries the same number of journeys.
JOURNEY_COUNTS = (1, 2, 3, 4, 5)
SAMPLES_PER_JOURNEY = 8
#: Feed windows after the one that primes the estimator; the refresh
#: folds them one by one, so each run times several window ingests.
FOLD_WINDOWS = 4


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def generate(seed: int, inputs: Path, size: Size) -> dict:
    """Write the scenario spec and the GPS feed; return the spec.

    The host folds window 0 before serving; the refresh ingests windows
    1..FOLD_WINDOWS, each closing the one before it.  The deltas telescope
    to the last closed window's counts, which are dealt in route order, so
    every seed serves the same refreshed artifact.
    """
    from repro.core import Scenario, utility_by_name
    from repro.experiments import (
        LocationClass,
        TraceProvider,
        classify_intersections,
        locations_of_class,
    )
    from repro.serve import scenario_to_spec

    bundle = TraceProvider(scale=size.scale, seed=TRACE_SEED).get("dublin")
    classes = classify_intersections(bundle.network, bundle.flows)
    shop = random.Random(SHOP_SEED).choice(locations_of_class(classes, LocationClass.CITY))
    scenario = Scenario(
        bundle.network, bundle.flows, shop, utility_by_name("linear", 20_000.0)
    )
    spec = scenario_to_spec(scenario)
    (inputs / "spec.json").write_text(json.dumps(spec))

    rng = random.Random(seed)
    routes = [
        (flow.label, [bundle.network.position(node) for node in flow.path])
        for flow in bundle.flows
        if flow.label
    ]
    labels = [label for label, _ in routes]
    counts = []
    for window in range(FOLD_WINDOWS + 1):
        order = list(labels)
        if window != FOLD_WINDOWS - 1:
            rng.shuffle(order)
        counts.append(
            {label: JOURNEY_COUNTS[i % len(JOURNEY_COUNTS)] for i, label in enumerate(order)}
        )
    windows = []
    for window, count in enumerate(counts):
        records = []
        for index, (label, points) in enumerate(routes):
            for journey in range(count[label]):
                start = window * WINDOW_S + rng.uniform(0.0, WINDOW_S - 600.0)
                for step in range(SAMPLES_PER_JOURNEY):
                    point = points[step * (len(points) - 1) // (SAMPLES_PER_JOURNEY - 1)]
                    records.append(
                        [f"bus-{window}-{index}-{journey}", label, start + 60.0 * step,
                         point.x, point.y]
                    )
        records.sort(key=lambda record: record[2])
        windows.append(records)
    (inputs / "feed.json").write_text(
        json.dumps({"window_s": WINDOW_S, "windows": windows})
    )
    return spec


def build_requests(spec: dict, seed: int, pool_size: int, count: int):
    """The seeded request stream: ``(kind, placement, http bytes)`` tuples."""
    rng = random.Random(seed * 7919 + 1)
    sites = spec["candidate_sites"]
    seen = set()
    pool: List[tuple] = []
    while len(pool) < pool_size:
        chosen = tuple(rng.sample(range(len(sites)), 5))
        if frozenset(chosen) not in seen:
            seen.add(frozenset(chosen))
            pool.append(chosen)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(pool_size)]
    cdf = list(_cumulative(weights))
    requests = []
    for _ in range(count):
        pick = rng.random()
        kind = next(name for name, edge in _edges() if pick < edge)
        rank = min(pool_size - 1, bisect.bisect(cdf, rng.random() * cdf[-1]))
        placement = [sites[index] for index in pool[rank]]
        if kind == "evaluate":
            body = {"kind": "evaluate", "placements": [placement]}
        elif kind == "top_gains":
            body = {"kind": "top_gains", "placement": placement[:4], "limit": 5}
        elif kind == "what_if":
            body = {"kind": "what_if", "placement": placement[:4], "add": placement[4]}
        else:
            body = {
                "kind": "place",
                "k": rng.randint(1, 10),
                "algorithm": rng.choice(("composite-greedy", "lazy-greedy")),
            }
        requests.append((kind, placement, http_post(body)))
    # The utility probes are the same on every seed, so utility_total
    # moves only with the refreshed volumes and the scoring itself.
    fixed = random.Random(PROBE_SEED)
    probes = [[sites[i] for i in fixed.sample(range(len(sites)), 5)] for _ in range(PROBES)]
    return requests, probes


def _cumulative(weights):
    total = 0.0
    for weight in weights:
        total += weight
        yield total


def _edges():
    edge = 0.0
    for name, share in MIX:
        edge += share
        yield name, edge
    yield MIX[-1][0], 2.0


def http_post(body: dict) -> bytes:
    raw = json.dumps(body).encode()
    head = (
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(raw)}\r\nConnection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + raw


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
async def _exchange(reader, writer, payload: bytes):
    """One request on an open connection: ``(status bytes, body bytes)``."""
    writer.write(payload)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    marker = head.index(b"Content-Length: ") + 16
    body = await reader.readexactly(int(head[marker:head.index(b"\r", marker)]))
    return head[9:12], body


class Load:
    """Closed-loop load over keep-alive connections, with reply checks.

    An episode warms up, then drives steady slices, reading the
    machine's speed in a pause after each (nothing in flight, so the
    reading sees an idle fleet); only those slices count towards
    ``rps`` and the latency percentiles, scaled to the reference speed
    by the mean of the episode's readings.
    Then it asks the host to swap and keeps the load on until a reply
    carries the new digest.
    """

    def __init__(self, requests) -> None:
        self.requests = requests
        #: Steady-slice latencies per request kind, at the reference speed.
        self.latency: Dict[str, List[float]] = {name: [] for name, _ in MIX}
        #: Steady-slice seconds at the reference speed.
        self.steady_s = 0.0
        #: ``(raw seconds, raw latencies per kind)`` per steady slice.
        self.slices: List[tuple] = []
        self.sent = 0
        self.failed = 0
        self.first_seen: Dict[str, float] = {}
        self.samples: List[list] = []
        self.errors: List[str] = []
        #: Readings of the machine's speed taken in the pauses between slices.
        self.readings: List[float] = []
        self._evaluates = 0

    def _digest(self, body: bytes) -> Optional[str]:
        start = body.find(b'"digest": "')
        if start < 0:
            return None
        start += 11
        return body[start:body.index(b'"', start)].decode()

    async def _drive(self, port: int, conns: list, index: int, until: float, sink, digests: int):
        """Requests on connection ``index`` until ``until`` (monotonic) or,
        with ``digests``, until replies have carried that many digests."""
        while True:
            now = time.monotonic()
            if now >= until or (digests and len(self.first_seen) >= digests):
                return
            reader, writer = conns[index]
            kind, placement, payload = self.requests[self.sent % len(self.requests)]
            self.sent += 1
            t0 = time.perf_counter()
            try:
                status, body = await _exchange(reader, writer, payload)
            except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                self.failed += 1
                self.errors.append(f"{kind}: {type(error).__name__}")
                writer.close()
                conns[index] = await asyncio.open_connection("127.0.0.1", port)
                continue
            elapsed = time.perf_counter() - t0
            digest = self._digest(body)
            if status != b"200" or digest is None:
                self.failed += 1
                self.errors.append(f"{kind}: HTTP {status.decode()}")
                continue
            if b'"degraded": true' in body:
                self.failed += 1
                self.errors.append(f"{kind}: degraded reply")
                continue
            self.first_seen.setdefault(digest, time.monotonic())
            if sink is not None:
                sink[kind].append(elapsed)
            if kind == "evaluate":
                self._evaluates += 1
                if self._evaluates % SAMPLE_EVERY == 0:
                    total = json.loads(body)["totals"][0]
                    self.samples.append([digest, placement, total])

    async def _phase(self, port, conns, seconds: float, sink=None, digests: int = 0):
        until = time.monotonic() + seconds
        await asyncio.gather(
            *(self._drive(port, conns, i, until, sink, digests) for i in range(len(conns)))
        )

    def run(self, port: int, slices: int, swap, reference: "ServingReference") -> None:
        """Warm up, drive ``slices`` steady slices, then call ``swap()``
        and drive on until a reply carries the swapped-in digest."""

        async def episode() -> None:
            conns = [
                await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)
            ]
            try:
                await self._phase(port, conns, WARMUP_S)
                self.readings.append(reference.seconds())
                for _ in range(slices):
                    raw: Dict[str, List[float]] = {name: [] for name, _ in MIX}
                    started = time.perf_counter()
                    await self._phase(port, conns, SLICE_S, raw)
                    self.slices.append((time.perf_counter() - started, raw))
                    self.readings.append(reference.seconds())
                swap()
                await self._phase(port, conns, SWAP_TIMEOUT_S, digests=len(self.first_seen) + 1)
            finally:
                for _, writer in conns:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(episode())
        factor = self.reference_factor()
        for seconds, raw in self.slices:
            self.steady_s += seconds * factor
            for kind, values in raw.items():
                self.latency[kind] += [value * factor for value in values]

    def reference_factor(self) -> float:
        """The speed scale of the machine over the steady slices.

        One reading is a few milliseconds and the machine's speed swings
        between readings far more than the fleet's throughput does, so
        the whole window's readings make one factor for the episode.
        """
        return ServingReference.NOMINAL_S * len(self.readings) / sum(self.readings)


def _send(port: int, body: dict):
    async def once():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await _exchange(reader, writer, http_post(body))
        finally:
            writer.close()
            await writer.wait_closed()

    return asyncio.run(once())


class ServingReference:
    """Reads the machine's speed for serving work.

    A reading is the compute reference (``common.reference_seconds``)
    plus ``REFERENCE_ROUND_TRIPS`` keep-alive round trips to
    ``reference_server.py``, a stdlib echo server on the same CPU: the
    asyncio, socket, context-switch and JSON work of a fleet hop, in
    code the program does not share.  A fleet on one CPU slows down more
    than the compute reference alone when the machine does, so this
    reading tracks its throughput more closely.
    """

    NOMINAL_S = REFERENCE_S + SERVING_REFERENCE_S

    def __init__(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        ready = work / "reference.json"
        ready.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "reference_server.py"), str(ready)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        )
        self.connection = None
        try:
            deadline = time.monotonic() + HOST_TIMEOUT_S
            while not ready.exists():
                if self.process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("reference server did not come up")
                time.sleep(0.01)
            port = json.loads(ready.read_text())["port"]
            self.connection = socket.create_connection(("127.0.0.1", port))
        except BaseException:
            self.close()
            raise
        self._payload = http_post({"kind": "evaluate", "placements": [[[0, 1]] * 5]})

    def _round_trips(self) -> float:
        started = time.perf_counter()
        for _ in range(REFERENCE_ROUND_TRIPS):
            self.connection.sendall(self._payload)
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += self.connection.recv(65536)
            head, _, body = reply.partition(b"\r\n\r\n")
            marker = head.index(b"Content-Length: ") + 16
            length = int(head[marker:].split(b"\r")[0])
            while len(body) < length:
                body += self.connection.recv(65536)
        return time.perf_counter() - started

    def seconds(self) -> float:
        return reference_seconds() + median([self._round_trips() for _ in range(3)])

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


# ----------------------------------------------------------------------
# host life cycle
# ----------------------------------------------------------------------
class Host:
    """One ``fleet_host.py`` process and the time it took to serve."""

    def __init__(self, inputs: Path, work: Path, traced: bool) -> None:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.work = work
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "fleet_host.py"), str(inputs), str(work),
             "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
        )
        self.port = self.wait_for("ready.json")["port"]
        probe = {"kind": "evaluate", "placements": [[]]}
        while True:
            status, _ = _send(self.port, probe)
            if status == b"200":
                break
            time.sleep(0.01)
        #: Raw seconds; the episode scales them by its steady-slice readings,
        #: as a reading now could meet a worker that is still starting.
        self.setup_s = time.monotonic() - spawned

    def wait_for(self, name: str) -> dict:
        """The JSON the host publishes as ``name`` once it has done a step."""
        path = self.work / name
        deadline = time.monotonic() + HOST_TIMEOUT_S
        while not path.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"fleet host did not publish {name}")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def command(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def finish(self, samples: list) -> dict:
        """Hand over the sampled replies, wait for the host's report."""
        path = self.work / "samples.json"
        path.write_text(json.dumps(samples))
        self.command(f"stop {path}")
        self.process.stdin.close()
        code = self.process.wait(timeout=HOST_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"fleet host exited with code {code}")
        return json.loads((self.work / "host.json").read_text())

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def serve_once(inputs, work, traced, requests, probes, slices, reference):
    """Spawn a host; ingest on the idle fleet; drive steady load, then
    swap under load; collect both sides."""
    host = Host(inputs, work, traced)
    try:
        host.command("ingest")
        host.wait_for("ingested.json")
        load = Load(requests)
        load.run(host.port, slices, lambda: host.command("swap"), reference)
        host.wait_for("swapped.json")
        status, body = _send(host.port, {"kind": "evaluate", "placements": probes})
        probe = json.loads(body) if status == b"200" else {}
        if probe:
            load.samples.extend(
                [probe["digest"], placement, total]
                for placement, total in zip(probes, probe["totals"])
            )
        report = host.finish(load.samples)
    except BaseException:
        host.close()
        raise
    factor = load.reference_factor()
    return {"host": report, "load": load, "probe": probe, "setup_s": host.setup_s * factor,
            "factor": factor}


def hop_split(trace_dir: Path) -> Dict[str, float]:
    """Median per-request time in each hop, from the fleet's own traces."""
    from repro.obs import load_traces

    hops: Dict[str, List[float]] = {
        "fleet.front_self_ms": [], "fleet.forward_ms": [],
        "serve.worker_self_ms": [], "serve.engine_ms": [],
    }
    for trace in load_traces(trace_dir).values():
        front = trace.named("front.request")
        attempts = trace.named("front.attempt")
        workers = trace.named("worker.request")
        engine = trace.named("engine.handle") + trace.named("engine.evaluate")
        if len(front) != 1 or not attempts or not workers:
            continue
        attempt_s = sum(span.duration for span in attempts)
        worker_s = sum(span.duration for span in workers)
        engine_s = sum(span.duration for span in engine)
        hops["fleet.front_self_ms"].append(front[0].duration - attempt_s)
        hops["fleet.forward_ms"].append(attempt_s - worker_s)
        hops["serve.worker_self_ms"].append(worker_s - engine_s)
        hops["serve.engine_ms"].append(engine_s)
    return {name: 1000.0 * median(values) for name, values in hops.items() if values}


# ----------------------------------------------------------------------
# metrics and checks
# ----------------------------------------------------------------------
def check(run: dict, result: Result) -> None:
    """Correctness of one serving episode, counted into ``result``."""
    host, load = run["host"], run["load"]
    served = {host["initial_digest"]} | {r["digest"] for r in host["refreshes"]}
    result.attempted += load.sent
    result.failed += load.failed
    for note in sorted(set(load.errors))[:5]:
        result.notes.append(f"request failure: {note}")
    foreign = [digest for digest in load.first_seen if digest not in served]
    result.check(not foreign, f"replies carried digests never served: {foreign}")
    for index, refresh in enumerate(host["refreshes"], start=1):
        result.check(refresh["changed"], f"refresh {index} did not change the artifact")
        result.check(
            refresh["digest"] in load.first_seen, f"refresh {index} digest never reached a reply"
        )
    result.check(bool(run["probe"]), "probe evaluate failed")
    result.check(bool(host["checks"]), "the host verified nothing")
    for ok, what in host["checks"]:
        result.check(ok, what)


def _latencies(runs) -> List[float]:
    return [v for run in runs for values in run["load"].latency.values() for v in values]


def _refreshes(runs) -> List[dict]:
    """Each swap, with how long (at the reference speed) its digest took
    to reach a reply; a swap that never did is a failed check and counts
    as lasting the whole swap timeout."""
    return [
        dict(
            r,
            refresh_s=(
                run["load"].first_seen.get(r["digest"], r["called"] + SWAP_TIMEOUT_S)
                - r["called"]
            ) * run["factor"],
        )
        for run in runs
        for r in run["host"]["refreshes"]
    ]


def end_to_end(runs) -> Dict[str, float]:
    """Throughput and latency pool every episode's steady slices; every
    other figure is a median over episodes, swaps, windows or patches."""
    latencies = _latencies(runs)
    return {
        "setup_s": median([run["setup_s"] for run in runs]),
        "peak_rss_mb": median([run["host"]["peak_rss_mb"] for run in runs]),
        # Window ingests and patches are short and many: their medians.
        "ingest_s": median([t for run in runs for t in run["host"]["ingest_s"]]),
        "plan_s": median([t for run in runs for t in run["host"]["patch_s"]]),
        "refresh_s": median([r["refresh_s"] for r in _refreshes(runs)]),
        "utility_total": math.fsum(runs[0]["probe"].get("totals", [])),
        "rps": len(latencies) / sum(run["load"].steady_s for run in runs),
        "p50_ms": 1000.0 * percentile(latencies, 0.50),
        "p99_ms": 1000.0 * tail_percentile(latencies),
    }


def _cache_counts(runs):
    hits = sum(run["host"]["worker_counters"].get("serve.cache.hits", 0) for run in runs)
    misses = sum(run["host"]["worker_counters"].get("serve.cache.misses", 0) for run in runs)
    batching = [b for run in runs for b in run["host"]["front_batching"].values()]
    deduped = sum(b["deduped"] for b in batching)
    evaluates = sum(b["requests"] for b in batching)
    return hits, misses, deduped, evaluates


def per_layer(run, baseline) -> Dict[str, float]:
    """Per-layer figures from one traced episode (``baseline``: untraced)."""
    refreshes = _refreshes([run])
    hits, misses, deduped, evaluates = _cache_counts([run])
    host = run["host"]
    metrics = {
        f"serve.latency_ms.{kind}": 1000.0 * percentile(run["load"].latency[kind], 0.5)
        for kind, _ in MIX
    }
    metrics.update(
        {
            "serve.compile_s": host["self_times"]["serve.compile"],
            "serve.artifact_bytes": host["artifact_bytes"],
            "serve.engine_cache_hit_frac": hits / max(1, hits + misses),
            "fleet.front_dedup_frac": deduped / max(1, evaluates),
            "fleet.retries": host["requests"]["retries"],
            "fleet.degraded": host["requests"]["degraded"],
            "fleet.shed": host["shed"],
            "fleet.respawns": host["respawns"],
            "fleet.swap_s": refreshes[0]["swap_s"],
            "fleet.workers_spawned": host["workers_started"] - WORKERS,
            "stream.patch_s": refreshes[0]["seconds"] - refreshes[0]["swap_s"],
            "trace.overhead_ratio": (
                percentile(_latencies([run]), 0.5) / percentile(_latencies([baseline]), 0.5)
            ),
        }
    )
    windows = FOLD_WINDOWS
    for name in ("stream.journal_append", "stream.segment", "stream.fold"):
        metrics[name + "_s"] = host["self_times"].get(name, 0.0) / windows
    metrics.update(hop_split(run["work"] / "trace"))
    return metrics


def _mix_note(runs, label: str) -> str:
    latencies = {kind: sum(len(run["load"].latency[kind]) for run in runs) for kind, _ in MIX}
    total = sum(latencies.values()) or 1
    steady = sum(run["load"].steady_s for run in runs)
    mix = ", ".join(f"{kind} {count / total:.0%}" for kind, count in latencies.items())
    hits, misses, deduped, evaluates = _cache_counts(runs)
    sent = sum(run["load"].sent for run in runs)
    failed = sum(run["load"].failed for run in runs)
    spawned = sum(run["host"]["workers_started"] for run in runs)
    return (
        f"fleet-stream ({label}): {total} steady replies at {total / steady:.0f} rps; mix {mix}; "
        f"engine LRU answered {hits} of {hits + misses} cacheable requests; "
        f"front dedup answered {deduped} of {evaluates} evaluates; "
        f"{sent} requests attempted, {failed} failed; "
        f"{len(_refreshes(runs))} swaps started {spawned} worker processes"
    )


def _raw_note(runs) -> str:
    """The unscaled figures next to the speed factors they were scaled by."""
    latencies = [
        v for run in runs for _, raw in run["load"].slices for values in raw.values()
        for v in values
    ]
    steady = sum(seconds for run in runs for seconds, _ in run["load"].slices)
    refreshes = [
        run["load"].first_seen.get(r["digest"], r["called"] + SWAP_TIMEOUT_S) - r["called"]
        for run in runs for r in run["host"]["refreshes"]
    ]
    factors = ", ".join(f"{run['factor']:.3f}" for run in runs)
    return (
        f"fleet-stream raw: rps {len(latencies) / steady:.1f}, "
        f"p50 {1000 * percentile(latencies, 0.5):.3f} ms, "
        f"p99 {1000 * tail_percentile(latencies):.3f} ms, "
        f"refresh {median(refreshes):.3f} s; speed factors {factors}"
    )


def _episodes(inputs, traced, count, requests, probes, slices, label, reference):
    runs = []
    for index in range(count):
        work = inputs / f"{label}-{index}"
        offset = index * len(requests) // max(1, count)
        run = serve_once(
            inputs, work, traced, requests[offset:] + requests[:offset], probes, slices,
            reference,
        )
        run["work"] = work
        runs.append(run)
    return runs


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    size = SMOKE if smoke else FULL
    inputs = WORK / f"fleet-stream-{seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    # A traced run splits the same time between an untraced and a traced fleet.
    count = 1 if trace else size.episodes
    episode_s = seconds / (2 * count) if trace else seconds / count
    slices = max(1, int(episode_s * STEADY_SHARE / SLICE_S))
    spec = generate(seed, inputs, size)
    requests, probes = build_requests(spec, seed, size.pool, 60_000 if not smoke else 5_000)
    result = Result()
    reference = ServingReference(inputs / "reference")
    try:
        plain = _episodes(inputs, False, count, requests, probes, slices, "episode", reference)
        traced = (
            _episodes(inputs, True, count, requests, probes, slices, "traced", reference)
            if trace else []
        )
    finally:
        reference.close()
    for episode in plain:
        check(episode, result)
    probe_totals = {math.fsum(episode["probe"].get("totals", [])) for episode in plain}
    result.check(len(probe_totals) == 1, f"fleets disagree on the probe utility: {probe_totals}")
    result.notes.append(_mix_note(plain, "untraced"))
    result.notes.append(_raw_note(plain))
    result.metrics.update(end_to_end(plain))
    if trace:
        for episode in traced:
            check(episode, result)
        result.notes.append(_mix_note(traced, "traced"))
        result.metrics.update(per_layer(traced[0], plain[0]))
    return result
