"""Structured event tracing on simulated time.

A :class:`Tracer` records two event shapes into one bounded ring buffer:

* **spans** — :class:`TraceSpan` context managers emitting a begin (``B``)
  and an end (``E``) event around a strictly nested operation (partition
  eviction, merge, bulk load, recovery replay);
* **point events** (``P``) — instantaneous occurrences (txn lifecycle, WAL
  append/truncate, manifest flips, GC purges, device I/O).

Every event carries the :class:`~repro.sim.clock.SimClock` reading at emit
time, a monotonically increasing sequence number ``i``, and its nesting
``depth``; span end events add the span's simulated duration.  Because the
clock is simulated, two identical runs produce byte-identical traces — the
golden-trace suite diffs :meth:`Tracer.export_jsonl` output directly.

Spans must close in LIFO order (context managers guarantee this); a
crossing end raises :class:`~repro.errors.ObsError`.  Operations whose
execution interleaves (streaming cursors, generators) must NOT get spans —
they are traced with counters and point events instead.
"""

from __future__ import annotations

import json
from collections import deque
from types import TracebackType

from ..errors import ObsError
from ..sim.clock import SimClock
from ..types import JSONDict


class TraceSpan:
    """One traced operation; use as a context manager.

    Constructor attributes land on the begin event; attributes added via
    :meth:`set` while the span is open land on the end event (results
    computed during the operation: records written, bytes, pages).
    """

    __slots__ = ("_tracer", "name", "begin_attrs", "end_attrs",
                 "span_id", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.begin_attrs = attrs
        self.end_attrs: dict[str, object] = {}
        self.span_id = -1
        self._t0 = 0.0

    def set(self, **attrs: object) -> None:
        """Attach result attributes to the upcoming end event."""
        self.end_attrs.update(attrs)

    def __enter__(self) -> "TraceSpan":
        self._tracer._begin(self)
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self._tracer._end(self, error=exc_type is not None)


class _NullSpan(TraceSpan):
    """Stateless shared no-op span (tracing disabled); reentrant-safe."""

    __slots__ = ()

    def __init__(self) -> None:  # deliberately no state
        pass

    def set(self, **attrs: object) -> None:
        return None

    def __enter__(self) -> "TraceSpan":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded ring buffer of trace events on the simulated clock."""

    __slots__ = ("clock", "enabled", "capacity", "_events", "_stack",
                 "_next_span_id", "_next_seq")

    def __init__(self, clock: SimClock, capacity: int = 65536,
                 enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.capacity = capacity
        self._events: deque[JSONDict] = deque(maxlen=capacity)
        self._stack: list[int] = []
        self._next_span_id = 0
        self._next_seq = 0

    # --------------------------------------------------------------- emitting

    def span(self, name: str, **attrs: object) -> TraceSpan:
        """A new (not yet entered) span; returns a no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return TraceSpan(self, name, attrs)

    def emit(self, name: str, **attrs: object) -> None:
        """Record one instantaneous point event."""
        if not self.enabled:
            return
        self._push({"kind": "P", "name": name, "attrs": attrs})

    def _begin(self, span: TraceSpan) -> None:
        span.span_id = self._next_span_id
        self._next_span_id += 1
        span._t0 = self.clock.now
        self._stack.append(span.span_id)
        self._push({"kind": "B", "name": span.name, "span": span.span_id,
                    "attrs": span.begin_attrs})

    def _end(self, span: TraceSpan, error: bool) -> None:
        if not self._stack or self._stack[-1] != span.span_id:
            raise ObsError(
                f"span {span.name!r} (id {span.span_id}) ended out of "
                f"order: open stack {self._stack}")
        attrs = dict(span.end_attrs)
        if error:
            attrs["error"] = True
        self._push({"kind": "E", "name": span.name, "span": span.span_id,
                    "dur": self.clock.now - span._t0, "attrs": attrs})
        self._stack.pop()

    def _push(self, event: JSONDict) -> None:
        event["i"] = self._next_seq
        self._next_seq += 1
        event["t"] = self.clock.now
        event["depth"] = len(self._stack)
        self._events.append(event)

    # ------------------------------------------------------------ inspection

    @property
    def open_spans(self) -> int:
        """Currently open (entered, not yet exited) spans."""
        return len(self._stack)

    def events(self) -> list[JSONDict]:
        return list(self._events)

    def export_jsonl(self) -> str:
        """Byte-stable JSON-lines export (one event per line, sorted
        keys) for golden comparisons and offline analysis."""
        return "".join(json.dumps(event, sort_keys=True) + "\n"
                       for event in self._events)

    def clear(self) -> None:
        """Drop buffered events (sequence/span counters keep running)."""
        self._events.clear()
