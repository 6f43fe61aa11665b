"""Micro-batching for concurrent evaluate queries.

Scoring a placement costs one masked reduction over the packed coverage
arrays, but each :func:`~repro.core.kernel.evaluate_placement_many` call
also pays fixed per-call overhead (pack lookup, Python dispatch).  Under
concurrency that overhead dominates: eight clients each asking for one
placement trigger eight kernel entries where one would do.

:class:`MicroBatcher` coalesces: an ``evaluate`` request enqueues its
placements and awaits a future; the first request in an idle window
schedules a flush after ``window`` seconds (early when ``max_batch``
placements accumulate); the flush concatenates every queued placement
into **one** ``evaluate_placement_many`` call — deduplicating identical
placements, which under hot-query workloads shrinks the kernel batch
dramatically — and scatters the totals back to the per-request futures.

Batching only pays once enough requests are in flight to share a
kernel call.  The caller therefore passes its admission count
(``inflight=...`` — the HTTP server's concurrent-request gauge) and the
batcher **bypasses the window adaptively**: a request that arrives with
``inflight <= bypass_threshold`` and finds no batch already open
dispatches immediately.  Holding such a request hostage for ``window``
seconds buys little coalescing and costs up to the window in latency —
the low-concurrency regression BENCH_serve.json showed at c=2 (0.57x)
and c=4 (0.71x) before the threshold existed (PR 6's ``solo`` hint only
covered c=1).  The hint must come from the caller because the batcher
alone cannot tell idle from busy: the engine's kernel call is
synchronous, so by the time the loop hands the next queued request to
the batcher the previous one has already finished and nothing is ever
"pending" — only the server's admission count sees the concurrency.
Bypassed requests are tallied separately (``bypassed`` in
:meth:`stats`).

The batcher also serves as the **fleet front's per-shard dedup stage**:
constructed with an async ``dispatch`` callable instead of an engine,
flushes are forwarded (one coalesced placement list per window) to
whatever answers — in the fleet, the retry/hedging worker path — so
identical queries landing on *different replicas* still collapse to one
worker call per window.

Placements are scored independently by the kernel (each gets its own
min-reduction and utility pass), so coalescing, reordering, and
deduplication cannot change any total: batched results are bit-identical
to direct ``evaluate_placement_many`` calls, which the differential
tests pin.

Batches are grouped by utility — placements under different utilities
can never share a kernel call.  The batcher is
asyncio-native and single-loop; it relies on the event loop for the
flush timer (``asyncio.sleep``), never on wall-clock reads.
"""

from __future__ import annotations

import asyncio
import json
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import obs
from ..errors import ServeRequestError
from ..graphs import NodeId
from ..obs import trace as obs_trace
from .engine import QueryEngine

#: One queued request: its placements and the future awaiting totals.
_Pending = Tuple[List[Tuple[NodeId, ...]], "asyncio.Future[List[float]]"]

#: Batch group: canonical utility spec JSON (or "").
_GroupKey = str

#: Async evaluate sink for engine-less batchers (the fleet front):
#: ``(placements, utility) -> totals`` in placement order.
DispatchFn = Callable[
    [List[Tuple[NodeId, ...]], Optional[dict]], Awaitable[List[float]]
]


class MicroBatcher:
    """Coalesces concurrent evaluate requests into shared kernel calls.

    Parameters
    ----------
    engine:
        The query engine whose ``evaluate_totals`` scores each flushed
        batch.  Mutually exclusive with ``dispatch``.
    window:
        Seconds to hold a batch open for stragglers (0 still batches
        whatever lands in the same loop iteration).
    max_batch:
        Flush early once this many placements are queued in one group.
    bypass_threshold:
        Dispatch immediately (no window) when the caller-reported
        in-flight count is at or below this and no batch is open.  The
        PR 6 behavior — bypass only genuinely solo requests — is
        ``bypass_threshold=1``.
    dispatch:
        Async evaluate sink used instead of an engine (the fleet
        front): each flush forwards the coalesced placements and awaits
        the totals.  Mutually exclusive with ``engine``.
    """

    def __init__(
        self,
        engine: Optional[QueryEngine] = None,
        window: float = 0.002,
        max_batch: int = 256,
        bypass_threshold: int = 1,
        dispatch: Optional[DispatchFn] = None,
    ) -> None:
        if window < 0:
            raise ServeRequestError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ServeRequestError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if bypass_threshold < 0:
            raise ServeRequestError(
                f"bypass_threshold must be >= 0, got {bypass_threshold}"
            )
        if (engine is None) == (dispatch is None):
            raise ServeRequestError(
                "exactly one of engine= and dispatch= must be given"
            )
        self._engine = engine
        self._dispatch = dispatch
        self._window = window
        self._max_batch = max_batch
        self._bypass_threshold = bypass_threshold
        self._pending: Dict[_GroupKey, List[_Pending]] = {}
        self._specs: Dict[_GroupKey, Optional[dict]] = {}
        self._flush_tasks: Dict[_GroupKey, "asyncio.Task[None]"] = {}
        self._dispatch_tasks: Set["asyncio.Task[None]"] = set()
        self.flushes = 0
        self.batched_requests = 0
        self.batched_placements = 0
        self.deduped_placements = 0
        self.bypassed = 0

    async def evaluate(
        self,
        placements: Sequence[Sequence[NodeId]],
        utility: Optional[dict] = None,
        solo: bool = False,
        inflight: Optional[int] = None,
    ) -> List[float]:
        """Score ``placements``, sharing a kernel call with peers.

        Awaits until the enclosing batch flushes; the returned totals
        are ordered like ``placements``.  ``inflight`` is the caller's
        concurrent-request count (the server's admission gauge): at or
        below ``bypass_threshold``, with no batch already open, the
        request dispatches immediately instead of paying the window.
        ``solo=True`` is the legacy spelling of ``inflight=1``.
        """
        if not placements:
            return []
        quiet = solo or (
            inflight is not None and inflight <= self._bypass_threshold
        )
        if quiet and not self._pending and not self._flush_tasks:
            # Too little concurrency to coalesce with: dispatch
            # immediately instead of paying the batch window for zero
            # (or near-zero) sharing.  With a synchronous engine no
            # other request can enqueue between this check and the
            # call; with an async dispatch a concurrent arrival simply
            # opens its own batch.
            self.bypassed += 1
            self.batched_requests += 1
            self.batched_placements += len(placements)
            obs.count("serve.batch.bypassed")
            normalized = [tuple(sites) for sites in placements]
            if self._dispatch is not None:
                return await self._dispatch(normalized, utility)
            assert self._engine is not None
            return self._engine_eval(
                normalized, utility, requests=1, deduped=0
            )
        key: _GroupKey = json.dumps(utility, sort_keys=True) if utility else ""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[List[float]]" = loop.create_future()
        normalized = [tuple(sites) for sites in placements]
        group = self._pending.setdefault(key, [])
        group.append((normalized, future))
        self._specs[key] = utility
        self.batched_requests += 1
        self.batched_placements += len(normalized)
        queued = sum(len(entry[0]) for entry in group)
        if queued >= self._max_batch:
            self._cancel_timer(key)
            self._flush(key)
        elif key not in self._flush_tasks:
            self._flush_tasks[key] = loop.create_task(self._timer(key))
        return await future

    async def _timer(self, key: _GroupKey) -> None:
        try:
            await asyncio.sleep(self._window)
        except asyncio.CancelledError:
            return
        self._flush_tasks.pop(key, None)
        self._flush(key)

    def _cancel_timer(self, key: _GroupKey) -> None:
        task = self._flush_tasks.pop(key, None)
        if task is not None:
            task.cancel()

    def _flush(self, key: _GroupKey) -> None:
        group = self._pending.pop(key, None)
        if not group:
            return
        utility = self._specs.pop(key, None)
        # Dedup identical placements across the batch: hot queries
        # collapse to one kernel row each.
        unique: Dict[Tuple[NodeId, ...], int] = {}
        for placements, _ in group:
            for placement in placements:
                if placement not in unique:
                    unique[placement] = len(unique)
        requested = sum(len(entry[0]) for entry in group)
        self.flushes += 1
        self.deduped_placements += requested - len(unique)
        obs.count_many(
            {
                "serve.batch.flushes": 1,
                "serve.batch.requests": len(group),
                "serve.batch.placements": requested,
                "serve.batch.deduped": requested - len(unique),
            }
        )
        if self._dispatch is not None:
            task = asyncio.get_running_loop().create_task(
                self._scatter_dispatch(group, unique, utility)
            )
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._dispatch_tasks.discard)
            return
        assert self._engine is not None
        try:
            totals = self._engine_eval(
                list(unique),
                utility,
                requests=len(group),
                deduped=requested - len(unique),
            )
        except Exception as error:  # rapflow: noqa[RAP003] scattered to every awaiting request, which re-raises with full type
            for _, future in group:
                if not future.done():
                    future.set_exception(error)
            return
        for placements, future in group:
            if not future.done():
                future.set_result(
                    [totals[unique[placement]] for placement in placements]
                )

    def _engine_eval(
        self,
        placements: List[Tuple[NodeId, ...]],
        utility: Optional[dict],
        requests: int,
        deduped: int,
    ) -> List[float]:
        """One engine kernel call, recorded as an ``engine.evaluate``
        span when a distributed trace is active.

        A flush can serve several coalesced requests; the span parents
        to whichever request's context scheduled the flush (the others
        share the kernel call but not the span), with the coalescing
        tallies in the attrs so the sharing is visible in the tree.
        """
        assert self._engine is not None
        ctx = obs_trace.current()
        if ctx is None:
            return self._engine.evaluate_totals(placements, utility=utility)
        clock = ctx.recorder.clock
        t_start = clock.now()
        status = "ok"
        try:
            return self._engine.evaluate_totals(placements, utility=utility)
        except Exception as error:  # rapflow: noqa[RAP003] re-raised verbatim; only the span status is derived
            status = type(error).__name__
            raise
        finally:
            obs_trace.record(
                "engine.evaluate",
                t_start,
                clock.now(),
                {
                    "placements": len(placements),
                    "requests": requests,
                    "deduped": deduped,
                    "status": status,
                },
                context=ctx,
            )

    async def _scatter_dispatch(
        self,
        group: List[_Pending],
        unique: Dict[Tuple[NodeId, ...], int],
        utility: Optional[dict],
    ) -> None:
        """Await the async sink for one flush and scatter its totals."""
        assert self._dispatch is not None
        try:
            totals = await self._dispatch(list(unique), utility)
        except Exception as error:  # rapflow: noqa[RAP003] scattered to every awaiting request, which re-raises with full type
            for _, future in group:
                if not future.done():
                    future.set_exception(error)
            return
        for placements, future in group:
            if not future.done():
                future.set_result(
                    [totals[unique[placement]] for placement in placements]
                )

    async def drain(self) -> None:
        """Flush every open batch immediately (graceful-shutdown path)."""
        for key in list(self._flush_tasks):
            self._cancel_timer(key)
        for key in list(self._pending):
            self._flush(key)
        while self._dispatch_tasks:
            outcomes = await asyncio.gather(
                *list(self._dispatch_tasks), return_exceptions=True
            )
            for outcome in outcomes:
                # _scatter_dispatch delivers failures to the awaiting
                # futures; anything surfacing here is a harness bug.
                if isinstance(outcome, Exception):
                    raise outcome

    def stats(self) -> Dict[str, int]:
        """Lifetime batching tallies (for ``/healthz`` and the bench)."""
        return {
            "flushes": self.flushes,
            "requests": self.batched_requests,
            "placements": self.batched_placements,
            "deduped": self.deduped_placements,
            "bypassed": self.bypassed,
        }


__all__ = ["DispatchFn", "MicroBatcher"]
