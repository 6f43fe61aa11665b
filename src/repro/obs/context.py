"""Run-scoped trace recorder: nested spans, counters, JSONL events.

:class:`ObsContext` is the single mutable object of the observability
layer.  Entering one (``with ObsContext(...) as ctx:``) makes it the
process-wide *active* context; the module-level hooks (:func:`span`,
:func:`count`, :func:`count_many`, :func:`gauge`) then route into it.
When no context is active every hook is a near-free no-op — one global
read and a ``None`` check — so instrumented hot paths cost nothing in
ordinary library use (the disabled-overhead contract is checked by
``scripts/check_obs_overhead.py``).

Three recording surfaces:

* **spans** — nested timed sections forming a tree rooted at the
  context's implicit run span.  Timing comes from the context's
  :class:`~repro.obs.clock.Clock`; inject a
  :class:`~repro.obs.clock.TickClock` for deterministic event streams.
* **counters** — monotone named totals (``celf.lazy_skips``,
  ``pack.rows``, ...).  Increments land both on the context (global
  totals) and on the innermost open span, so per-algorithm breakdowns
  fall out of the span tree for free.
* **gauges** — last-value-wins observations (``fleet.inflight``,
  configured scale, ...).

Every span start/end is mirrored to an optional JSONL sink.  Each event
carries ``event``, ``span_id``, ``name`` and ``t_rel`` (seconds since
the context opened, monotone within a span); ``span_end`` events add
``duration`` and the span's own counters.

The layer is single-threaded by design, matching the rest of the
reproduction; activation is not thread-local.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    IO,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Union,
)

from ..errors import ObsError
from .clock import Clock, SystemClock

#: Counter value type (ints stay ints until a float lands on them).
Number = Union[int, float]


@dataclass
class Span:
    """One timed section of a run (a node of the span tree)."""

    span_id: int
    name: str
    parent_id: Optional[int]
    t_start: float
    t_end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, Number] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """Span length in seconds (``None`` while still open)."""
        if self.t_end is None:
            return None
        return self.t_end - self.t_start

    def total_counters(self) -> Dict[str, Number]:
        """This span's counters plus every descendant's, merged."""
        totals: Dict[str, Number] = dict(self.counters)
        for child in self.children:
            for name, value in child.total_counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals


class ObsContext:
    """Span/counter recorder for one instrumented run.

    Parameters
    ----------
    clock:
        Time source for span timestamps (default:
        :class:`~repro.obs.clock.SystemClock`).
    jsonl_path:
        Optional path; when given, every span event is appended to it as
        one JSON object per line while the context is entered.
    label:
        Name of the implicit root span (default ``"run"``).
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        jsonl_path: Optional[Union[str, Path]] = None,
        label: str = "run",
    ) -> None:
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._t0 = self._clock.now()
        self.root = Span(span_id=0, name=label, parent_id=None, t_start=0.0)
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, object] = {}
        self._stack: List[Span] = [self.root]
        self._next_id = 1
        self._jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._sink: Optional[IO[str]] = None
        self._entered = False
        self._previous: Optional["ObsContext"] = None

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "ObsContext":
        global _ACTIVE
        if self._entered:
            raise ObsError("ObsContext cannot be entered twice")
        self._entered = True
        if self._jsonl_path is not None:
            try:
                self._sink = open(self._jsonl_path, "w")
            except OSError as error:
                raise ObsError(
                    f"cannot open JSONL sink {self._jsonl_path}: {error}"
                ) from error
        self._previous = _ACTIVE
        _ACTIVE = self
        self._emit_start(self.root)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        global _ACTIVE
        try:
            if len(self._stack) != 1:
                open_spans = [span.name for span in self._stack[1:]]
                raise ObsError(
                    f"context closed with open span(s) {open_spans!r}"
                )
            self.root.t_end = self._rel()
            self.root.counters = dict(self.counters)
            self._emit_end(self.root)
        finally:
            _ACTIVE = self._previous
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @property
    def current_span(self) -> Span:
        """The innermost open span (the root when none is)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a nested span; always closed on exit, even on error."""
        parent = self._stack[-1]
        child = Span(
            span_id=self._next_id,
            name=name,
            parent_id=parent.span_id,
            t_start=self._rel(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        parent.children.append(child)
        self._stack.append(child)
        self._emit_start(child)
        try:
            yield child
        finally:
            child.t_end = self._rel()
            self._emit_end(child)
            self._stack.pop()

    def record_span(self, name: str, duration: float, **attrs: object) -> Span:
        """Append an already-finished span of length ``duration`` seconds.

        The context-manager :meth:`span` requires strictly nested (LIFO)
        open/close pairs, which concurrent ``asyncio`` tasks cannot
        guarantee — two interleaved requests would close each other's
        spans.  Async code therefore times a stage with its own injected
        clock and records the result retroactively here: the span is
        closed at the current context time with ``t_start`` back-dated by
        ``duration``, parented to the innermost open span.  Both JSONL
        events (``span_start`` / ``span_end``) are emitted immediately,
        in order.
        """
        if duration < 0:
            raise ObsError(
                f"record_span({name!r}) needs a non-negative duration, "
                f"got {duration}"
            )
        t_end = self._rel()
        parent = self._stack[-1]
        child = Span(
            span_id=self._next_id,
            name=name,
            parent_id=parent.span_id,
            t_start=t_end - duration,
            t_end=t_end,
            attrs=dict(attrs),
        )
        self._next_id += 1
        parent.children.append(child)
        self._emit_start(child)
        self._emit_end(child)
        return child

    # ------------------------------------------------------------------
    # counters / gauges
    # ------------------------------------------------------------------
    def count(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to a named counter (context + innermost span)."""
        self.counters[name] = self.counters.get(name, 0) + value
        top = self._stack[-1]
        top.counters[name] = top.counters.get(name, 0) + value

    def count_many(self, counters: Mapping[str, Number]) -> None:
        """Batch :meth:`count` — one call per instrumented flush point."""
        for name, value in counters.items():
            self.count(name, value)

    def gauge(self, name: str, value: object) -> None:
        """Record a last-value-wins observation."""
        self.gauges[name] = value

    def snapshot(self) -> Dict[str, Number]:
        """A copy of the global counter totals (for delta accounting)."""
        return dict(self.counters)

    def counters_since(
        self, snapshot: Mapping[str, Number]
    ) -> Dict[str, Number]:
        """Counter deltas accumulated since :meth:`snapshot`."""
        deltas: Dict[str, Number] = {}
        for name, value in self.counters.items():
            delta = value - snapshot.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas

    # ------------------------------------------------------------------
    # event sink
    # ------------------------------------------------------------------
    def _rel(self) -> float:
        return self._clock.now() - self._t0

    def _emit(self, payload: Dict[str, object]) -> None:
        if self._sink is None:
            return
        try:
            self._sink.write(json.dumps(payload) + "\n")
        except OSError as error:
            raise ObsError(
                f"cannot write JSONL sink {self._jsonl_path}: {error}"
            ) from error

    def _emit_start(self, span: Span) -> None:
        payload: Dict[str, object] = {
            "event": "span_start",
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "t_rel": span.t_start,
        }
        if span.attrs:
            payload["attrs"] = span.attrs
        self._emit(payload)

    def _emit_end(self, span: Span) -> None:
        payload: Dict[str, object] = {
            "event": "span_end",
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "t_rel": span.t_end,
            "duration": span.duration,
        }
        if span.counters:
            payload["counters"] = span.counters
        if span.span_id == 0 and self.gauges:
            payload["gauges"] = self.gauges
        self._emit(payload)


# ----------------------------------------------------------------------
# module-level hooks (no-ops when no context is active)
# ----------------------------------------------------------------------
_ACTIVE: Optional[ObsContext] = None


class _NullSpan(AbstractContextManager):
    """Reusable do-nothing context manager for the inactive path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def active() -> Optional[ObsContext]:
    """The currently active context, or ``None``."""
    return _ACTIVE


def span(name: str, **attrs: object) -> "ContextManager[Optional[Span]]":
    """Open a span on the active context (no-op context manager if none)."""
    ctx = _ACTIVE
    if ctx is None:
        return _NULL_SPAN
    return ctx.span(name, **attrs)


def count(name: str, value: Number = 1) -> None:
    """Increment a counter on the active context (no-op if none)."""
    ctx = _ACTIVE
    if ctx is not None:
        ctx.count(name, value)


def count_many(counters: Mapping[str, Number]) -> None:
    """Batch-increment counters on the active context (no-op if none)."""
    ctx = _ACTIVE
    if ctx is not None:
        ctx.count_many(counters)


def gauge(name: str, value: object) -> None:
    """Record a gauge on the active context (no-op if none)."""
    ctx = _ACTIVE
    if ctx is not None:
        ctx.gauges[name] = value


def record_span(name: str, duration: float, **attrs: object) -> Optional[Span]:
    """Retroactively record a finished span (no-op if no context).

    See :meth:`ObsContext.record_span` — the async-safe alternative to
    the nested :func:`span` context manager.
    """
    ctx = _ACTIVE
    if ctx is None:
        return None
    return ctx.record_span(name, duration, **attrs)


__all__ = [
    "Number",
    "ObsContext",
    "Span",
    "active",
    "count",
    "count_many",
    "gauge",
    "record_span",
    "span",
]
