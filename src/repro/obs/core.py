"""The observability facade.

One :class:`Observability` per database instance bundles the metrics
registry and the tracer around the shared simulated clock.  Engine
components receive it (or ``None``) at construction.  A component that
already counts a fact registers a source with the registry and does no
registry work on its hot path; the rest — histograms, trace events, facts
nothing else counts — pay a single ``is not None`` test when the facade
is absent (DESIGN.md §13).

The facade also attaches the simulated device: its own
:class:`~repro.sim.device.DeviceStats` are the ``device.*`` counters (a
view, :func:`device_metrics`), and a listener on its blktrace-style
:class:`~repro.sim.trace.IOTrace` mirrors every request into the event
stream as a ``device.io`` point event.
"""

from __future__ import annotations

from ..sim.clock import SimClock
from ..sim.device import SimulatedDevice
from .config import ObsConfig
from .registry import Metrics, MetricsRegistry
from .tracing import NULL_SPAN, Tracer, TraceSpan


class Observability:
    """Registry + tracer bundle shared by one engine instance."""

    __slots__ = ("config", "clock", "registry", "tracer")

    def __init__(self, config: ObsConfig, clock: SimClock) -> None:
        self.config = config
        self.clock = clock
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock, enabled=config.tracing)

    # ------------------------------------------------------------- device I/O

    def attach_device(self, device: SimulatedDevice) -> None:
        """Export ``device``'s counters and trace its every request.

        The listener fires for *all* requests regardless of the I/O
        trace's own capture flag; call this once per device — a recovered
        instance keeps its device, and with it this attachment.
        """
        self.registry.register_source("device",
                                      lambda: device_metrics(device))
        tracer = self.tracer

        def _listener(time: float, lba: int, nbytes: int,
                      kind: str) -> None:
            tracer.emit("device.io", kind=kind, lba=lba, nbytes=nbytes)

        device.trace.add_listener(_listener)

    # ---------------------------------------------------------------- exports

    def export_metrics_json(self) -> str:  # reprolint: disable=R12 -- tests/unit/test_obs_golden.py and tests/crash/harness.py compare exports
        return self.registry.to_json()

    def export_trace_jsonl(self) -> str:
        return self.tracer.export_jsonl()


def device_metrics(device: SimulatedDevice) -> Metrics:
    """The ``device.*`` view: ``device``'s own
    :class:`~repro.sim.device.DeviceStats`."""
    stats = device.stats
    return {"device.reads": stats.reads, "device.writes": stats.writes,
            "device.bytes_read": stats.bytes_read,
            "device.bytes_written": stats.bytes_written}


def span_or_null(obs: Observability | None, name: str,
                 **attrs: object) -> TraceSpan:
    """A span on ``obs``'s tracer, or the shared no-op span.

    The instrumentation idiom for rare, strictly nested operations::

        with span_or_null(tree._obs, "mvpbt.evict", index=tree.name) as sp:
            ...
            sp.set(records_out=n)
    """
    if obs is None:
        return NULL_SPAN
    return obs.tracer.span(name, **attrs)
