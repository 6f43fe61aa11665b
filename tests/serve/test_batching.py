"""Micro-batcher coalescing, dedup, scatter, and error propagation.

These tests drive :class:`~repro.serve.batching.MicroBatcher` directly
on a recording fake engine inside ``asyncio.run`` — no HTTP, no threads —
so call counts and scatter order are exactly observable.
"""

import asyncio
import json

import pytest

from repro.errors import ServeRequestError
from repro.serve import MicroBatcher, PlacementServer


class RecordingEngine:
    """Scores a placement as the sum of its site numbers (V3 -> 3)."""

    def __init__(self, error=None):
        self.calls = []
        self.error = error

    def evaluate_totals(self, placements, utility=None):
        self.calls.append((tuple(placements), utility))
        if self.error is not None:
            raise self.error
        return [
            float(sum(int(str(site)[1:]) for site in placement))
            for placement in placements
        ]


class TestCoalescing:
    def test_concurrent_requests_share_one_engine_call(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01)

        async def scenario():
            return await asyncio.gather(
                batcher.evaluate([("V3",)]),
                batcher.evaluate([("V5",)]),
                batcher.evaluate([("V3", "V5")]),
            )

        results = asyncio.run(scenario())
        assert results == [[3.0], [5.0], [8.0]]
        assert len(engine.calls) == 1
        assert batcher.stats()["flushes"] == 1
        assert batcher.stats()["requests"] == 3

    def test_solo_request_bypasses_the_window(self):
        engine = RecordingEngine()
        # A window longer than the test timeout: only the bypass path
        # can complete this await.
        batcher = MicroBatcher(engine, window=60.0)

        async def scenario():
            return await batcher.evaluate([("V3", "V5")], solo=True)

        assert asyncio.run(scenario()) == [8.0]
        assert len(engine.calls) == 1
        stats = batcher.stats()
        assert stats["bypassed"] == 1
        assert stats["flushes"] == 0
        assert stats["requests"] == 1
        assert stats["placements"] == 1

    def test_solo_hint_joins_an_open_batch_instead_of_bypassing(self):
        # A stale solo hint must not reorder past a batch already
        # holding requests: the bypass only fires when nothing is queued.
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01)

        async def scenario():
            first = asyncio.ensure_future(batcher.evaluate([("V3",)]))
            await asyncio.sleep(0)  # let the first request enqueue
            second = await batcher.evaluate([("V5",)], solo=True)
            return await first, second

        assert asyncio.run(scenario()) == ([3.0], [5.0])
        assert len(engine.calls) == 1
        assert batcher.stats()["bypassed"] == 0
        assert batcher.stats()["flushes"] == 1

    def test_without_the_solo_hint_requests_still_batch(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01)

        async def scenario():
            return await asyncio.gather(
                batcher.evaluate([("V3",)]),
                batcher.evaluate([("V5",)]),
            )

        assert asyncio.run(scenario()) == [[3.0], [5.0]]
        assert len(engine.calls) == 1
        assert batcher.stats()["bypassed"] == 0

    def test_duplicates_collapse_to_one_kernel_row(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01)

        async def scenario():
            return await asyncio.gather(
                *(batcher.evaluate([("V3",)]) for _ in range(6))
            )

        results = asyncio.run(scenario())
        assert results == [[3.0]] * 6
        (placements, _), = engine.calls
        assert placements == ((("V3",),))
        assert batcher.stats()["deduped"] == 5

    def test_scatter_preserves_request_order(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01)

        async def scenario():
            return await batcher.evaluate(
                [("V5",), ("V3",), ("V5",), ("V2",)]
            )

        # One request, duplicate rows: totals come back in request order
        # even though the engine saw a deduplicated batch.
        assert asyncio.run(scenario()) == [5.0, 3.0, 5.0, 2.0]
        (placements, _), = engine.calls
        assert placements == (("V5",), ("V3",), ("V2",))


class TestGrouping:
    def test_different_utilities_never_share_a_call(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01)
        linear = {"name": "linear", "threshold": 6.0}

        async def scenario():
            return await asyncio.gather(
                batcher.evaluate([("V3",)]),
                batcher.evaluate([("V3",)], utility=linear),
            )

        asyncio.run(scenario())
        assert len(engine.calls) == 2
        assert {call[1] is None for call in engine.calls} == {True, False}

    def test_backend_field_never_splits_a_batch(self, engine):
        """Requests differing only in the ignored ``backend`` field share
        one kernel call, deduplicated to one row."""
        calls = []
        evaluate_totals = engine.evaluate_totals

        def recording(placements, utility=None):
            calls.append(list(placements))
            return evaluate_totals(placements, utility=utility)

        engine.evaluate_totals = recording
        server = PlacementServer(engine, batch_window=0.01, bypass_threshold=0)

        async def scenario():
            await server.start()
            try:
                return await asyncio.gather(
                    *(
                        server._dispatch(
                            "POST",
                            "/query",
                            {},
                            json.dumps(
                                {"kind": "evaluate", "placements": [["V3"]],
                                 **extra}
                            ).encode(),
                        )
                        for extra in (
                            {},
                            {"backend": "python"},
                            {"backend": "numpy"},
                            {"backend": "fortran"},
                        )
                    )
                )
            finally:
                await server.shutdown()

        replies = asyncio.run(scenario())
        assert [status for status, _ in replies] == [200] * 4
        assert len({json.dumps(reply) for _, reply in replies}) == 1
        assert calls == [[("V3",)]]


class TestFlushTriggers:
    def test_max_batch_flushes_before_the_window(self):
        engine = RecordingEngine()
        # A window far longer than the test timeout: only the early
        # flush at max_batch can complete these awaits.
        batcher = MicroBatcher(engine, window=60.0, max_batch=2)

        async def scenario():
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.evaluate([("V3",)]),
                    batcher.evaluate([("V5",)]),
                ),
                timeout=5.0,
            )

        assert asyncio.run(scenario()) == [[3.0], [5.0]]

    def test_drain_flushes_pending_batches(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=60.0)

        async def scenario():
            pending = asyncio.ensure_future(batcher.evaluate([("V3",)]))
            await asyncio.sleep(0)  # let the request enqueue
            await batcher.drain()
            return await asyncio.wait_for(pending, timeout=5.0)

        assert asyncio.run(scenario()) == [3.0]

    def test_empty_request_short_circuits(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01)
        assert asyncio.run(batcher.evaluate([])) == []
        assert engine.calls == []


class TestAdaptiveBypass:
    """The ``inflight`` hint: low concurrency must not pay the window."""

    def test_low_inflight_bypasses_the_window(self):
        engine = RecordingEngine()
        # A window longer than the test timeout: only the bypass path
        # can complete these awaits.
        batcher = MicroBatcher(engine, window=60.0, bypass_threshold=4)

        async def scenario():
            return [
                await batcher.evaluate([("V3",)], inflight=count)
                for count in (1, 2, 4)
            ]

        assert asyncio.run(scenario()) == [[3.0]] * 3
        assert len(engine.calls) == 3
        assert batcher.stats()["bypassed"] == 3

    def test_inflight_above_threshold_batches(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01, bypass_threshold=4)

        async def scenario():
            return await asyncio.gather(
                batcher.evaluate([("V3",)], inflight=5),
                batcher.evaluate([("V5",)], inflight=5),
            )

        assert asyncio.run(scenario()) == [[3.0], [5.0]]
        assert len(engine.calls) == 1
        assert batcher.stats()["bypassed"] == 0
        assert batcher.stats()["flushes"] == 1

    def test_low_inflight_still_joins_an_open_batch(self):
        # The hint never reorders past queued work: with a batch open,
        # a quiet request joins it instead of jumping the queue.
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01, bypass_threshold=4)

        async def scenario():
            first = asyncio.ensure_future(
                batcher.evaluate([("V3",)], inflight=5)
            )
            await asyncio.sleep(0)  # let the first request enqueue
            second = await batcher.evaluate([("V5",)], inflight=1)
            return await first, second

        assert asyncio.run(scenario()) == ([3.0], [5.0])
        assert len(engine.calls) == 1
        assert batcher.stats()["bypassed"] == 0

    def test_threshold_zero_restores_always_batch(self):
        engine = RecordingEngine()
        batcher = MicroBatcher(engine, window=0.01, bypass_threshold=0)

        async def scenario():
            return await batcher.evaluate([("V3",)], inflight=1)

        assert asyncio.run(scenario()) == [3.0]
        assert batcher.stats()["bypassed"] == 0
        assert batcher.stats()["flushes"] == 1


class SleepEngine:
    """Evaluation dominated by a fixed per-call cost (5 ms of sleep)."""

    def __init__(self, seconds: float = 0.005):
        self.seconds = seconds
        self.calls = 0

    def evaluate_totals(self, placements, utility=None):
        self.calls += 1
        import time

        time.sleep(self.seconds)
        return [float(len(placement)) for placement in placements]


class TestLowConcurrencyRegression:
    def test_batched_keeps_pace_with_unbatched_at_c1_to_c4(self):
        """Batching must cost (almost) nothing when there is nothing to
        coalesce.

        BENCH_serve.json before the adaptive bypass showed batched mode
        at 0.57x unbatched throughput at c=2 and 0.71x at c=4: every
        request paid the full batch window for zero sharing.  With the
        ``inflight`` hint the quiet path dispatches immediately, so on
        a sleep-dominated engine (5 ms per call, dwarfing scheduling
        noise) batched throughput stays within 5% of unbatched at every
        low concurrency level.  Each side takes the best of three runs:
        scheduler stalls on a loaded box only ever *add* time, so the
        minimum is a stable estimate of the true cost.
        """
        import time

        window = 0.002
        rounds = 6
        attempts = 3

        def drive(batcher, concurrency):
            async def one_client(client_id):
                for i in range(rounds):
                    await batcher.evaluate(
                        [(f"V{client_id}",)], inflight=concurrency
                    )

            async def scenario():
                await asyncio.gather(
                    *(one_client(c) for c in range(concurrency))
                )

            t0 = time.perf_counter()
            asyncio.run(scenario())
            return time.perf_counter() - t0

        def best_batched(concurrency):
            best = float("inf")
            for _ in range(attempts):
                batcher = MicroBatcher(
                    SleepEngine(), window=window, bypass_threshold=4
                )
                best = min(best, drive(batcher, concurrency))
                # The win must come from the bypass, not from luck:
                # every request at c <= threshold skipped the window.
                assert (
                    batcher.stats()["bypassed"] == concurrency * rounds
                )
            return best

        def best_unbatched(concurrency):
            return min(
                drive(
                    MicroBatcher(SleepEngine(), window=0.0, max_batch=1),
                    concurrency,
                )
                for _ in range(attempts)
            )

        for concurrency in (1, 2, 4):
            elapsed_batched = best_batched(concurrency)
            elapsed_unbatched = best_unbatched(concurrency)
            # throughput_batched >= 0.95 * throughput_unbatched
            assert elapsed_batched <= elapsed_unbatched / 0.95, (
                f"c={concurrency}: batched took {elapsed_batched:.4f}s vs "
                f"unbatched {elapsed_unbatched:.4f}s — the window is "
                "leaking into the quiet path again"
            )


class TestErrors:
    def test_engine_error_reaches_every_awaiting_request(self):
        engine = RecordingEngine(error=ServeRequestError("boom"))
        batcher = MicroBatcher(engine, window=0.01)

        async def scenario():
            return await asyncio.gather(
                batcher.evaluate([("V3",)]),
                batcher.evaluate([("V5",)]),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert len(results) == 2
        for result in results:
            assert isinstance(result, ServeRequestError)
            assert "boom" in str(result)

    def test_invalid_knobs_are_rejected(self):
        with pytest.raises(ServeRequestError):
            MicroBatcher(RecordingEngine(), window=-1.0)
        with pytest.raises(ServeRequestError):
            MicroBatcher(RecordingEngine(), max_batch=0)
