"""Metrics registry: views of the engine's own counts, plus instruments.

One :class:`MetricsRegistry` per database instance exports hierarchical
dotted names (``mvpbt.search.count``, ``buffer.pool.hit_rate``) of two
kinds.  A **view** belongs to a component that already counts the fact —
buffer pool, device, transaction manager, WAL, the catalog's trees: it
registers one named *source*, a callback returning ``{name: value}``
(``int`` a counter, ``float`` a gauge) read at export time, so the hot
path does no registry work for the fact.  A source registered again under
its key replaces the old one, which is how a recovered engine takes over
the facade; no instrument may take a view's name.  An **instrument** — a
counter, gauge or fixed-bucket histogram — records a fact nothing else
counts; hot paths bind it once at construction, so recording is one
attribute increment.

A disabled registry drops sources unread and hands out shared no-op
instruments (:data:`NULL_COUNTER` / :data:`NULL_GAUGE` /
:data:`NULL_HISTOGRAM`), so instrumented code needs no second flag check.

Exports are deterministic: the simulation is seeded and clocked by
:class:`~repro.sim.clock.SimClock`, so two identical runs must produce
byte-identical :meth:`MetricsRegistry.to_json` output — the property the
golden-trace suite locks down.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Callable, TypeVar

from ..errors import ObsError
from ..types import JSONDict

#: default buckets for microsecond latency histograms (1 us .. 100 ms).
LATENCY_BUCKETS_US: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 20000.0, 50000.0, 100000.0)

#: default buckets for per-operation cardinalities (rows, records, pages).
COUNT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0)

#: what a source returns: counter values (``int``) and gauge values
#: (``float``) by metric name
Metrics = dict[str, int | float]
Source = Callable[[], Metrics]

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _validate_name(name: str) -> None:
    segments = name.split(".")
    if not segments or not all(
            seg and set(seg) <= _NAME_CHARS for seg in segments):
        raise ObsError(
            f"bad metric name {name!r}: use lowercase dotted segments "
            f"([a-z0-9_], e.g. 'mvpbt.evict.pages_written')")


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time float, overwritten on every :meth:`set`."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` tallies observations with
    ``value <= bounds[i]``; the final bucket is the overflow."""

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: tuple[float, ...]) -> None:
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ObsError(
                f"histogram {name!r}: bounds must strictly increase")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.counts[bisect_left(self.bounds, value)] += 1


class NullCounter(Counter):
    """Shared no-op counter returned by a disabled registry."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


NULL_COUNTER = NullCounter("null")
NULL_GAUGE = NullGauge("null")
NULL_HISTOGRAM = NullHistogram("null", ())

Instrument = Counter | Gauge | Histogram
_I = TypeVar("_I", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Instruments and named sources, with deterministic JSON export."""

    __slots__ = ("enabled", "_instruments", "_sources")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}
        #: source key -> (callback, the metric names it returns)
        self._sources: dict[str, tuple[Source, frozenset[str]]] = {}

    # ----------------------------------------------------------------- views

    def register_source(self, key: str, source: Source) -> None:
        """Export ``source()`` at every read; a no-op when disabled.

        ``source`` is called once here to learn its names, each of which
        must be free — no instrument's and no other source's.  Registering
        ``key`` again replaces its old source.
        """
        if not self.enabled:
            return
        self._sources.pop(key, None)
        names = frozenset(source())
        for name in names:
            self._claim(name)
        self._sources[key] = (source, names)

    def _source_of(self, name: str) -> Source | None:
        for source, names in self._sources.values():
            if name in names:
                return source
        return None

    def _claim(self, name: str) -> None:
        """Validate a new instrument's or view's name; it must be free."""
        _validate_name(name)
        if name in self._instruments or self._source_of(name) is not None:
            raise ObsError(
                f"metric {name!r} is already recorded: a view of an engine "
                f"count is never shadowed by a second instrument")

    # -------------------------------------------------------------- creation

    # reprolint: disable-next=R6 -- obs Counter, not collections.Counter
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = LATENCY_BUCKETS_US
                  ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        inst = self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, bounds))
        if inst.bounds != bounds:
            raise ObsError(
                f"histogram {name!r} re-requested with different bounds")
        return inst

    def _get_or_create(self, name: str, kind: type[_I],
                       make: Callable[[], _I]) -> _I:
        existing = self._instruments.get(name)
        if existing is None:
            self._claim(name)
            inst = make()
            self._instruments[name] = inst
            return inst
        if not isinstance(existing, kind):
            raise ObsError(
                f"instrument {name!r} already registered as "
                f"{type(existing).__name__}, not {kind.__name__}")
        return existing

    # ------------------------------------------------------------ inspection

    def get(self, name: str) -> Instrument | None:
        """The instrument named ``name``; None for a view or a name nothing
        recorded yet."""
        return self._instruments.get(name)

    def counter_value(self, name: str) -> int:
        """Value of a counter — an instrument's or a view's read now — or
        0 when nothing records ``name``."""
        inst = self._instruments.get(name)
        value: int | float | None
        if inst is None:
            source = self._source_of(name)
            if source is None:
                return 0
            value = source()[name]
        else:
            value = inst.value if isinstance(inst, Counter) else None
        if not isinstance(value, int):
            raise ObsError(f"metric {name!r} is not a counter")
        return value

    def export(self) -> JSONDict:
        """JSON-shaped snapshot of every instrument and view, grouped by
        kind; every source is read once."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, JSONDict] = {}
        for name, inst in self._instruments.items():
            if isinstance(inst, Histogram):
                histograms[name] = {
                    "bounds": list(inst.bounds),
                    "counts": list(inst.counts),
                    "count": inst.count,
                    "total": inst.total,
                }
            elif isinstance(inst, Counter):
                counters[name] = inst.value
            else:
                gauges[name] = inst.value
        for source, _names in self._sources.values():
            for name, value in source().items():
                if isinstance(value, float):
                    gauges[name] = value
                else:
                    counters[name] = value
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_json(self) -> str:
        """Byte-stable export (sorted keys) for golden comparisons."""
        return json.dumps(self.export(), sort_keys=True, indent=2) + "\n"
