"""Host process of ``fleet-stream``: the fleet front, its workers, live refresh.

Usage (spawned by ``fleet_stream.py``, not by hand)::

    python3 perfbench/fleet_host.py INPUTS WORK TRACED

Compiles the artifact from ``INPUTS/spec.json``, publishes it to a
``ShmArtifactPool``, starts a ``PlacementFleet`` front (``FleetThread``)
over two subprocess workers that attach the segment, and writes
``WORK/ready.json`` with the front's port.  It then obeys one command
per stdin line:

* ``ingest`` -- the remaining windows of ``INPUTS/feed.json`` go one by
  one through ``JourneySegmenter`` -> ``JourneyJournal`` ->
  ``WindowedEstimator`` while the fleet is idle, each timed between
  readings of the machine's speed; then ``WORK/ingested.json`` appears;
* ``swap`` -- ``StreamRefresher.refresh`` patches the artifact with the
  deltas the windows emitted and hot-swaps the fleet (under the
  caller's load); then ``WORK/swapped.json`` appears;
* ``stop [SAMPLES.json]`` -- shut the fleet down, time the patch again
  on the idle machine, verify the sampled replies against the artifacts
  it served and write ``WORK/host.json``.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from common import BENCH_DIR, SpeedLog, Tracer, peak_rss_mb, use_checkout_sources

WORKERS = 2
PASSENGERS_PER_BUS = 25.0
WORKER_START_TIMEOUT_S = 60.0
#: After shutdown the host times the swap's patch this many times, and
#: the feed's window ingest this many times over, each on fresh state.
PATCH_REPEATS = 60
INGEST_REPEATS = 3


class WorkerProcesses:
    """Every worker process the host starts, so that none outlives it.

    The fleet may still be starting a worker on an executor thread when
    the host shuts down (a respawn of a retired slot, see README.md);
    after :meth:`close` no new process starts and every started one is
    killed.
    """

    def __init__(self) -> None:
        self.workers: List["CountingWorker"] = []
        self._lock = threading.Lock()
        self._closed = False

    def spawn(self, worker: "CountingWorker", argv: List[str]) -> None:
        from repro.errors import ServeWorkerError

        with self._lock:
            if self._closed:
                raise ServeWorkerError("the host is shutting down")
            worker.process = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
            )

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for worker in self.workers:
                worker.kill()


class CountingWorker:
    """A subprocess fleet worker that leaves a counter report at exit.

    The life cycle of ``repro.serve.ProcessWorker`` (ready file on an
    ephemeral port, SIGTERM drain), with the child started through
    ``fleet_worker.py`` so its engine cache counters survive it.
    """

    def __init__(
        self, worker_id: str, serve_args: List[str], work: Path, processes: WorkerProcesses
    ) -> None:
        self.worker_id = worker_id
        self.report = work / "workers" / f"{worker_id}.json"
        self._ready = work / "workers" / f"{worker_id}.ready"
        self._argv = [
            sys.executable, str(BENCH_DIR / "fleet_worker.py"), str(self.report),
            "serve", *serve_args, "--port", "0", "--ready-file", str(self._ready),
            "--worker-label", worker_id,
        ]
        self._processes = processes
        self.process = None
        self._address = None
        processes.workers.append(self)

    def start(self) -> None:
        from repro.errors import ServeWorkerError

        self._processes.spawn(self, self._argv)
        process = self.process
        deadline = time.monotonic() + WORKER_START_TIMEOUT_S
        while True:
            text = self._ready.read_text().strip() if self._ready.exists() else ""
            if text:
                host, port = text.split()
                self._address = (host, int(port))
                return
            if process.poll() is not None:
                raise ServeWorkerError(f"worker {self.worker_id} exited before binding")
            if time.monotonic() > deadline:
                self.kill()
                raise ServeWorkerError(f"worker {self.worker_id} did not become ready")
            time.sleep(0.02)

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        process.terminate()
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def kill(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        process.kill()
        process.wait()

    @property
    def address(self):
        return self._address


def _records(window) -> list:
    from repro.traces import GpsRecord

    return [
        GpsRecord(bus_id=bus, journey_id=route, timestamp=t, x=x, y=y)
        for bus, route, t, x, y in window
    ]


def _stream_state(feed, journal_dir: Path):
    """Fresh segmenter, journal and estimator, primed with window 0 (its
    counts become the baseline the later windows' deltas are taken
    against)."""
    from repro.stream import JourneyJournal, JourneySegmenter, WindowedEstimator

    state = (
        JourneySegmenter(), JourneyJournal(journal_dir), WindowedEstimator(feed["window_s"])
    )
    _ingest(_records(feed["windows"][0]), *state, Tracer(enabled=False))
    return state


def _ingest(window, segmenter, journal, estimator, tracer: Tracer):
    """One feed window through segmenter, journal and estimator."""
    with tracer.span("stream.segment"):
        released = [out for record in window for out in segmenter.observe(record)]
        released.extend(segmenter.flush())
        closed = segmenter.poll_closed()
    with tracer.span("stream.journal_append"):
        for record in released:
            journal.append(record)
    with tracer.span("stream.fold"):
        deltas = [
            delta
            for journey in sorted(closed, key=lambda c: c.end_time)
            for delta in estimator.observe(journey)
        ]
    return deltas


def _publish(path: Path, doc: dict) -> None:
    """Write ``doc`` to ``path`` atomically (the parent polls for it)."""
    path.with_suffix(".tmp").write_text(json.dumps(doc))
    path.with_suffix(".tmp").rename(path)


def main(argv) -> int:
    inputs, work, traced = Path(argv[0]), Path(argv[1]), argv[2] == "1"
    use_checkout_sources()
    from repro.core import evaluate_placement_many
    from repro.serve import (
        FleetConfig,
        FleetThread,
        PlacementFleet,
        ScenarioArtifact,
        ShmArtifactPool,
        scenario_from_spec,
    )
    from repro.serve.engine import decode_site
    from repro.stream import StreamRefresher, patched_spec

    tracer = Tracer(enabled=True)
    spec = json.loads((inputs / "spec.json").read_text())
    feed = json.loads((inputs / "feed.json").read_text())
    windows = [_records(window) for window in feed["windows"]]
    (work / "workers").mkdir(parents=True, exist_ok=True)
    trace_dir = work / "trace" if traced else None

    with tracer.span("serve.compile"):
        artifact = ScenarioArtifact.compile(scenario_from_spec(spec))
    pool = ShmArtifactPool(work / "shm")
    spawns = itertools.count()
    processes = WorkerProcesses()
    by_digest: Dict[str, List[CountingWorker]] = {}

    def factory_for(served: ScenarioArtifact):
        serve_args = ["--shm-attach", served.digest, "--shm-dir", str(work / "shm")]
        if trace_dir is not None:
            serve_args += ["--trace-dir", str(trace_dir)]

        def factory(index: int) -> CountingWorker:
            worker = CountingWorker(f"w{index}-{next(spawns)}", serve_args, work, processes)
            by_digest.setdefault(served.digest, []).append(worker)
            return worker

        return factory

    artifacts: Dict[str, ScenarioArtifact] = {artifact.digest: artifact}
    refreshes: List[Dict[str, object]] = []
    batching: Dict[str, Dict[str, int]] = {}
    change = None
    try:
        pool.publish(artifact)
        fleet = PlacementFleet(
            factory_for(artifact),
            digest=artifact.digest,
            config=FleetConfig(
                workers=WORKERS, front_batch_window=0.002, trace_dir=trace_dir
            ),
        )
        refresher = StreamRefresher(
            artifact, pool=pool, fleet=fleet, worker_factory_for=factory_for,
            passengers_per_bus=PASSENGERS_PER_BUS,
        )
        segmenter, journal, estimator = _stream_state(feed, work / "journal")
        with FleetThread(fleet) as handle, handle.client() as client:
            _publish(work / "ready.json", {"port": handle.port})
            deltas = []
            while True:
                command = sys.stdin.readline().split()
                if not command or command[0] == "stop":
                    break
                if command[0] == "ingest":
                    for window in windows[1:]:
                        deltas += _ingest(window, segmenter, journal, estimator, tracer)
                    _publish(work / "ingested.json", {"windows": len(windows) - 1})
                elif command[0] == "swap":
                    # The old shard's batcher is retired with it: read it first.
                    for digest, shard in client.healthz()["shards"].items():
                        if shard["front_batching"]:
                            batching[digest] = shard["front_batching"]
                    change = (refresher.artifact, refresher.volume_deltas(deltas)[0])
                    called = time.monotonic()
                    with tracer.span("stream.refresh"):
                        result = refresher.refresh(deltas)
                    swap = result.swap or {"seconds": 0.0, "spawned": 0}
                    artifacts[result.new_digest] = refresher.artifact
                    refreshes.append(
                        {
                            "digest": result.new_digest,
                            "changed": result.changed,
                            "called": called,
                            "seconds": result.seconds,
                            "swap_s": float(swap["seconds"]),
                            "flows_changed": result.flows_changed,
                        }
                    )
                    _publish(work / "swapped.json", {"digest": result.new_digest})
            health = client.healthz()
            for digest, shard in health["shards"].items():
                if shard["front_batching"]:
                    batching[digest] = shard["front_batching"]
    finally:
        processes.close()
        pool.unlink_all()

    checks: List[List[object]] = []
    if len(command) == 2:
        samples = json.loads(Path(command[1]).read_text())
        sampled: Dict[str, list] = {}
        for digest, placement, total in samples:
            sampled.setdefault(digest, []).append((placement, total))
        for digest, entries in sorted(sampled.items()):
            served = artifacts.get(digest)
            if served is None:
                checks.append([False, f"reply digest {digest[:12]} was never served"])
                continue
            want = evaluate_placement_many(
                served.scenario,
                [[decode_site(site) for site in placement] for placement, _ in entries],
            )
            got = [total for _, total in entries]
            checks.append(
                [want == got, f"{len(got)} sampled totals on {digest[:12]} match the artifact"]
            )
    # The live ingest and patch ran next to the fleet (and the patch next
    # to load and a swap); timing them again with the fleet shut down, the
    # host alone on its CPU, gives repeatable samples.
    speed = SpeedLog()
    ingests = []
    with speed.ticking():
        for repeat in range(INGEST_REPEATS):
            state = _stream_state(feed, work / f"journal-{repeat}")
            for window in windows[1:]:
                started = time.perf_counter()
                _ingest(window, *state, Tracer(enabled=False))
                ingests.append((started, time.perf_counter()))
        patches = []
        if change is not None:
            old, changes = change
            for _ in range(PATCH_REPEATS):
                started = time.perf_counter()
                old.patched(changes)
                patches.append((started, time.perf_counter()))
    ingest_s = [speed.scaled(*interval) for interval in ingests]
    patch_s = [speed.scaled(*interval) for interval in patches]
    if change is not None:
        if len(command) == 2:
            recompiled = ScenarioArtifact.compile(
                scenario_from_spec(patched_spec(old.spec, changes))
            )
            checks.append(
                [
                    recompiled.digest == refreshes[0]["digest"],
                    "patch and recompile give the same digest",
                ]
            )
    serving = by_digest[refresher.digest][:WORKERS]
    final = [json.loads(w.report.read_text()) for w in serving if w.report.exists()]
    reports = [
        json.loads(w.report.read_text()) for w in processes.workers if w.report.exists()
    ]
    counters: Dict[str, float] = {}
    for report in reports:
        for name, value in report["counters"].items():
            counters[name] = counters.get(name, 0) + value
    (work / "host.json").write_text(
        json.dumps(
            {
                "initial_digest": artifact.digest,
                "artifact_bytes": int(artifact.stats["nbytes"]),
                "refreshes": refreshes,
                "checks": checks,
                "requests": health["requests"],
                "respawns": health["respawns"],
                "shed": sum(tier["shed"] for tier in health["admission"]["tiers"].values()),
                "front_batching": batching,
                "worker_counters": counters,
                # Every worker process started, respawns of retired slots included.
                "workers_started": len(processes.workers),
                "peak_rss_mb": peak_rss_mb() + sum(r["peak_rss_mb"] for r in final),
                "self_times": {k: v[0] for k, v in tracer.self_times().items()},
                "patch_s": patch_s,
                "ingest_s": ingest_s,
            }
        )
    )
    tracer.write(work / "host.spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
