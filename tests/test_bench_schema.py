"""Schema pins for the committed benchmark snapshots.

Downstream tooling (the CI trend job, the serving dashboard examples)
reads the committed ``BENCH_*.json`` snapshots by key.  These tests pin
the stable top-level keys so a bench-script refactor that renames or
drops one fails loudly here instead of silently breaking consumers.
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

CORE_SNAPSHOT = REPO_ROOT / "BENCH_core.json"
SERVE_SNAPSHOT = REPO_ROOT / "BENCH_serve.json"


def load(path: Path) -> dict:
    if not path.is_file():
        pytest.skip(f"{path.name} is not committed in this checkout")
    return json.loads(path.read_text())


class TestCoreSnapshot:
    def test_stable_top_level_keys(self):
        snapshot = load(CORE_SNAPSHOT)
        for key in ("schema", "benches", "obs_counters"):
            assert key in snapshot, f"BENCH_core.json lost key {key!r}"
        assert snapshot["schema"] == "rapflow-bench-trajectory/2"

    def test_benches_are_labeled_records(self):
        snapshot = load(CORE_SNAPSHOT)
        benches = snapshot["benches"]
        assert isinstance(benches, list) and benches
        for bench in benches:
            for key in ("name", "algorithm", "median_seconds"):
                assert key in bench

    def test_obs_counters_record_greedy_work(self):
        snapshot = load(CORE_SNAPSHOT)
        counters = snapshot["obs_counters"]
        assert isinstance(counters, dict) and counters
        for algorithm, entry in counters.items():
            assert entry.get("gain_evaluations", 0) > 0, (
                f"{algorithm} reported no gain evaluations"
            )


class TestServeSnapshot:
    def test_stable_top_level_keys(self):
        snapshot = load(SERVE_SNAPSHOT)
        for key in ("schema", "levels", "batching_speedup", "fleet",
                    "shm_fleet", "stream", "git_sha", "git_dirty"):
            assert key in snapshot, f"BENCH_serve.json lost key {key!r}"
        assert snapshot["schema"] == "rapflow-bench-serve/5"

    def test_snapshot_names_a_clean_commit(self):
        # A snapshot is only reproducible if it records the exact tree
        # it measured: a real HEAD sha and no uncommitted edits.
        snapshot = load(SERVE_SNAPSHOT)
        assert len(snapshot["git_sha"]) >= 7
        assert snapshot["git_sha"] != "unknown"
        assert snapshot["git_dirty"] is False

    def test_levels_carry_throughput_and_tail_latency(self):
        snapshot = load(SERVE_SNAPSHOT)
        levels = snapshot["levels"]
        assert isinstance(levels, list) and levels
        for level in levels:
            for key in ("concurrency", "mode", "throughput_rps",
                        "p50_ms", "p95_ms", "p99_ms"):
                assert key in level
            assert level["mode"] in ("batched", "unbatched")

    def test_batching_wins_at_high_concurrency(self):
        snapshot = load(SERVE_SNAPSHOT)
        speedup = snapshot["batching_speedup"]
        high = [
            ratio for concurrency, ratio in speedup.items()
            if int(concurrency) >= 8
        ]
        assert high, "snapshot must include a concurrency >= 8 level"
        assert max(high) > 1.0, (
            "micro-batching should win at concurrency >= 8; "
            f"snapshot says {speedup}"
        )

    def test_batching_does_not_tax_the_solo_caller(self):
        # The solo-bypass fix: a lone client must no longer pay the
        # batch window (seed snapshot sat at 0.47x).  0.9 leaves margin
        # for bench-machine noise around the 0.95 acceptance floor.
        snapshot = load(SERVE_SNAPSHOT)
        solo = snapshot["batching_speedup"].get("1")
        assert solo is not None, "snapshot must include a c=1 level"
        assert solo >= 0.9, (
            f"solo requests pay the batch window again ({solo}x)"
        )

    def test_fleet_tier_covers_the_acceptance_shape(self):
        snapshot = load(SERVE_SNAPSHOT)
        fleet = snapshot["fleet"]
        assert fleet["mode"] == "fleet"
        assert fleet["workers"] >= 4
        assert fleet["concurrency"] >= 64
        assert fleet["errors"] == 0
        for key in ("throughput_rps", "p50_ms", "p95_ms", "p99_ms",
                    "retries", "shed_rate", "degraded_rate",
                    "corrupt_detected"):
            assert key in fleet, f"fleet record lost key {key!r}"
        # The bench kills a worker mid-run: recovery must be recorded.
        assert fleet["respawns"] >= 1
        per_worker = fleet["per_worker"]
        assert len(per_worker) == fleet["workers"]
        for record in per_worker:
            for key in ("id", "state", "respawns", "p95_ms", "p99_ms"):
                assert key in record

    def test_shm_fleet_tier_covers_the_scale_out_shape(self):
        snapshot = load(SERVE_SNAPSHOT)
        tier = snapshot["shm_fleet"]
        assert tier["mode"] == "shm_fleet"
        assert tier["workers"] >= 4
        assert tier["concurrency"] >= 256
        assert tier["errors"] == 0
        for key in ("throughput_rps", "p50_ms", "p95_ms", "p99_ms",
                    "artifact_nbytes", "attach_seconds", "load_seconds",
                    "total_restore_private_delta_bytes", "front_batching"):
            assert key in tier, f"shm_fleet record lost key {key!r}"
        per_worker = tier["per_worker"]
        assert len(per_worker) == tier["workers"]
        for record in per_worker:
            restore = record["restore"]
            assert restore["mode"] == "shm-attach"
            assert restore["seconds"] >= 0.0

    def test_shm_fleet_carries_server_side_metrics(self):
        # Schema /4: the snapshot records the front's GET /metrics view
        # (fixed-bucket histograms + fleet-aggregated counters), not
        # just client-side timings.
        snapshot = load(SERVE_SNAPSHOT)
        metrics = snapshot["shm_fleet"]["fleet_metrics"]
        assert metrics["schema"] == "rapflow-metrics/1"
        for block in ("latency", "workers_latency"):
            histogram = metrics[block]
            for key in ("buckets_ms", "counts", "count", "p50_ms",
                        "p95_ms", "p99_ms"):
                assert key in histogram, f"{block} lost key {key!r}"
            assert len(histogram["counts"]) == len(histogram["buckets_ms"]) + 1
        assert metrics["latency"]["count"] > 0
        counters = metrics["counters"]
        for key in ("served", "retries", "hedges", "degraded",
                    "respawns", "shm_attached", "shed"):
            assert key in counters, f"fleet counters lost key {key!r}"
        assert counters["shm_attached"] == snapshot["shm_fleet"]["workers"]

    def test_front_metrics_p95_agrees_with_the_bench_p95(self):
        # The acceptance bar: the server-side histogram percentile and
        # the bench's client-side p95 must land within one fixed bucket
        # of each other — the histogram is coarse by design, but it must
        # not tell a different story than the measured tail.
        from repro.obs import LATENCY_BUCKETS_MS, bucket_index

        snapshot = load(SERVE_SNAPSHOT)
        tier = snapshot["shm_fleet"]
        front_hist = tier["fleet_metrics"]["latency"]
        assert front_hist["buckets_ms"] == list(LATENCY_BUCKETS_MS)
        front_bucket = bucket_index(front_hist["p95_ms"])
        bench_bucket = bucket_index(tier["p95_ms"])
        assert abs(front_bucket - bench_bucket) <= 1, (
            f"front /metrics p95 {front_hist['p95_ms']}ms and bench p95 "
            f"{tier['p95_ms']}ms are more than one bucket apart"
        )

    def test_stream_tier_covers_the_streaming_claims(self):
        # Schema /5: the stream tier backs the streaming pipeline's
        # three claims — the estimator folds journeys fast, the
        # incremental patch beats a full recompile to a bit-identical
        # digest, and a hot swap under load does not drop requests.
        snapshot = load(SERVE_SNAPSHOT)
        tier = snapshot["stream"]
        assert tier["mode"] == "stream"

        fold = tier["fold"]
        assert fold["journeys"] > 0
        assert fold["journeys_per_s"] > 0
        assert fold["deltas_emitted"] > 0

        refresh = tier["refresh"]
        assert refresh["digests_agree"] is True
        assert refresh["patch_seconds"] > 0
        assert refresh["recompile_seconds"] > refresh["patch_seconds"], (
            "the incremental patch must beat a full recompile; snapshot "
            f"says patch={refresh['patch_seconds']}s vs "
            f"recompile={refresh['recompile_seconds']}s"
        )
        assert refresh["patch_speedup"] > 1.0

        swap = tier["swap"]
        assert swap["swaps"] >= 1
        assert swap["availability"] >= 0.999, (
            f"hot swaps under load cost availability: {swap}"
        )
        for key in ("baseline_p99_ms", "under_swap_p99_ms",
                    "p99_blip_ratio", "swap_seconds_p50"):
            assert key in swap, f"stream swap record lost key {key!r}"
        assert swap["p99_blip_ratio"] > 0

    def test_shm_fleet_outscales_the_fleet_tier(self):
        # The PR's acceptance bar: subprocess workers over one shared
        # segment at c=256 must beat the in-process fleet tier's
        # recorded throughput by >= 5x.
        snapshot = load(SERVE_SNAPSHOT)
        fleet_rps = snapshot["fleet"]["throughput_rps"]
        shm_rps = snapshot["shm_fleet"]["throughput_rps"]
        assert shm_rps >= 5.0 * fleet_rps, (
            f"shm_fleet tier at {shm_rps:.0f} rps is under 5x the fleet "
            f"tier's {fleet_rps:.0f} rps"
        )

    def test_shm_workers_share_one_artifact_copy(self):
        # Copy-count proof: private-memory growth while attaching stays
        # bounded by per-process noise (page tables, utility values),
        # never by per-worker copies of the artifact's arrays.  The
        # floor keeps the bound meaningful for tiny bench artifacts
        # whose nbytes sit below interpreter noise.
        snapshot = load(SERVE_SNAPSHOT)
        tier = snapshot["shm_fleet"]
        per_worker_budget = max(
            tier["artifact_nbytes"], 16 * 1024 * 1024
        )
        total = tier["total_restore_private_delta_bytes"]
        assert total < tier["workers"] * per_worker_budget, (
            f"{total} private bytes across {tier['workers']} workers "
            "looks like per-worker artifact copies, not shared mappings"
        )
