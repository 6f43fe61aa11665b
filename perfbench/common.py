"""Shared plumbing for the rapflow benchmark.

Checkout discovery, the machine-speed readings every time is scaled
by, the in-memory span recorder, small statistics helpers and the
result record every workload returns.  Nothing here
imports ``repro``: the workloads do, after :func:`use_checkout_sources`
has put this checkout's ``src/`` first on the import path.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
#: Scratch space for generated inputs, traces and worker files.  It lives
#: inside the checkout (the benchmark writes nowhere else) and is ignored
#: by git.
WORK = REPO / ".perfbench-work"


class CheckoutError(RuntimeError):
    """The benchmark is not running from a rapflow checkout."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and so do children).

    Raises :class:`CheckoutError` when the sources are missing, so a copy
    of the benchmark without the program fails instead of measuring some
    other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no rapflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        str(SRC) + (os.pathsep + inherited if inherited else "")
    )


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
#: What one run of the reference work takes on the reference machine (a
#: quiet 2-vCPU Xeon at 2.0 GHz).  Times are reported in seconds at that
#: speed: ``raw * REFERENCE_S / (reference work's time around the raw interval)``.
REFERENCE_S = 0.0020
#: How often a pass that runs alone on its CPU reads the machine's speed.
TICK_S = 0.1
#: Readings this far either side of an interval also count towards its
#: speed: the machine's speed swings from one reading to the next, and
#: the mean of many readings tracks the speed a long interval saw.
SMOOTHING_S = 1.0
_REFERENCE_ARRAY: List[object] = []


def _reference_work() -> int:
    """A fixed mix of interpreter and numpy work, owned by the benchmark.

    Dict and heap churn, string formatting and an array sort: the kinds
    of work the program spends its time on, so a machine that runs them
    slower runs the program slower in about the same proportion.
    """
    import heapq

    import numpy as np

    if not _REFERENCE_ARRAY:
        _REFERENCE_ARRAY.append(np.random.default_rng(0).random(25_000))
    table: Dict[int, int] = {}
    total = 0
    for i in range(2_000):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    heap: List[int] = []
    for i in range(1_000):
        heapq.heappush(heap, (i * 31) % 997)
    while heap:
        total += heapq.heappop(heap)
    total += int(np.sort(_REFERENCE_ARRAY[0])[7] * 1000)
    return total


def _timed_reference() -> float:
    """One run of the reference work, in seconds, with the collector off
    (a collection of the program's objects is not the machine's speed)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_work()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def reference_seconds() -> float:
    """The median of five runs of the reference work, right now.

    Call it only while nothing else the benchmark started is busy, so it
    measures the machine, not a queue.
    """
    return median([_timed_reference() for _ in range(5)])


def use_one_cpu() -> None:
    """Pin this process, and every process it starts from now on, to one CPU.

    On a shared virtual machine a process that wakes another on an idle
    vCPU waits for the hypervisor to schedule that vCPU, and that wait
    swings with the neighbours' load.  On one CPU the benchmark's
    processes hand over to each other directly, so a run measures the
    CPU time its work takes.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedLog:
    """Readings of the machine's speed, to scale raw times by.

    :meth:`sample` takes a reading between timed pieces of work; inside
    :meth:`ticking`, a timer signal takes one every ``TICK_S`` in the
    middle of the work, and :meth:`scaled` leaves the readings' own time
    out of the interval.  :meth:`scaled` turns a raw interval into
    seconds at the reference speed, by the mean of the readings inside
    it, the last one before it, the first one after it, and any within
    ``SMOOTHING_S`` of it; scale an interval once the readings after it
    have been taken.  A disabled log takes no readings and scales nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``(perf_counter at the start, seconds)`` per reading, in order.
        self.readings: List[tuple] = []
        self._ticks: List[tuple] = []
        if enabled:
            _reference_work()  # first call allocates; keep it out of the readings
            self.sample()

    def sample(self) -> None:
        if self.enabled:
            self.readings.append((time.perf_counter(), reference_seconds()))

    def _tick(self, signum, frame) -> None:
        at = time.perf_counter()
        reading = (at, _timed_reference())
        self.readings.append(reading)
        self._ticks.append(reading)

    @contextmanager
    def ticking(self) -> Iterator[None]:
        """Read the speed every ``TICK_S`` while the block runs (main
        thread only; only for work that runs alone on its CPU)."""
        if not self.enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the machine's reference time around [start, end]."""
        if not self.readings:
            return 1.0
        times = [at for at, _ in self.readings]
        first = max(0, min(bisect.bisect_right(times, start) - 1,
                           bisect.bisect_left(times, start - SMOOTHING_S)))
        last = min(len(times) - 1, max(bisect.bisect_left(times, end),
                                       bisect.bisect_right(times, end + SMOOTHING_S) - 1))
        around = [seconds for _, seconds in self.readings[first:last + 1]]
        return REFERENCE_S * len(around) / sum(around)

    def busy(self, start: float, end: float) -> float:
        """Seconds timer readings took inside [start, end]."""
        ticks = [at for at, _ in self._ticks]
        inside = self._ticks[bisect.bisect_left(ticks, start):bisect.bisect_left(ticks, end)]
        return sum(seconds for _, seconds in inside)

    def scaled(self, start: float, end: float) -> float:
        return (end - start - self.busy(start, end)) * self.factor(start, end)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))
    return ordered[index]


def tail_percentile(values: Sequence[float]) -> float:
    """The p99, or with fewer than 1,000 samples the highest percentile
    that still has ten samples beyond it (never below the median)."""
    fraction = max(0.5, min(0.99, 1.0 - 10.0 / len(values)))
    return percentile(values, fraction)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class SpanRecord:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL = _NullSpan()


class Tracer:
    """Records spans around the benchmark's calls into each layer.

    Spans carry a name, start, end and parent and stay in memory until
    :meth:`write`.  A disabled tracer hands out one shared no-op context
    manager, so untraced runs pay a single attribute check per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        record = SpanRecord(
            span_id=len(self.spans),
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, root: Optional[str] = None) -> Dict[str, List[float]]:
        """Self time per span name, one entry per enclosing ``root`` span.

        A span's self time is its duration minus its children's (children
        nest strictly inside their parent here).  With ``root`` given, the
        totals are split per occurrence of that span, so a run with
        several passes yields one value per pass.
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.end - span.start
                )
        owner: Dict[int, int] = {}
        passes: List[int] = []
        for span in self.spans:
            if span.name == root:
                owner[span.span_id] = len(passes)
                passes.append(span.span_id)
            elif span.parent_id is not None and span.parent_id in owner:
                owner[span.span_id] = owner[span.parent_id]
        count = max(1, len(passes))
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            slot = owner.get(span.span_id, 0) if root is not None else 0
            own = span.end - span.start - child_time.get(span.span_id, 0.0)
            totals.setdefault(span.name, [0.0] * count)[slot] += own
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one workload run reports: metrics, attempts, failures."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"CHECK FAILED: {what}")
        return ok


def emit(result: Result, units: Dict[str, str], names: Sequence[str]) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    for note in result.notes:
        print(note)
    for name in names:
        print(f"{name:<42} {result.metrics[name]:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": units[name]}
                    for name in names
                },
            }
        )
    )
