"""Simulated clock and the CPU price list it charges.

The whole engine shares one :class:`SimClock`.  Device latencies and CPU
work advance it; benchmark throughput is ``work / clock.now``.  The clock
carries the engine's one :class:`CostModel` as :attr:`SimClock.cost`: every
CPU charge — a key comparison, a visibility step, a buffered page request —
reads its constant there, so every structure on one clock pays one price
list.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """CPU cost constants, in seconds, charged to the simulated clock.

    The absolute values are small relative to device latencies; they exist so
    that in-memory work (record comparisons, visibility-check steps, hashing)
    is not free, which matters for CPU-bound cases such as long in-memory
    partition scans.
    """

    compare: float = 50e-9          #: one key comparison
    visibility_step: float = 80e-9  #: one visibility-check evaluation
    hash_op: float = 120e-9         #: one bloom-filter hash probe
    page_cpu: float = 2e-6          #: fixed CPU overhead per buffered page request
    txn_overhead: float = 5e-6      #: begin/commit bookkeeping per transaction
    indirection_lookup: float = 150e-9  #: one VID -> recordID resolution


#: the price list of a clock built without one
_DEFAULT_COST = CostModel()


class SimClock:
    """A monotonically advancing simulated clock, in seconds, and the
    :class:`CostModel` every CPU charge on it reads."""

    __slots__ = ("_now", "cost")

    def __init__(self, start: float = 0.0, *,
                 cost: CostModel = _DEFAULT_COST) -> None:
        if start < 0:
            raise ConfigError(f"clock cannot start at negative time: {start}")
        self._now = float(start)
        self.cost = cost

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time never runs backwards.
        """
        if seconds < 0:
            raise ConfigError(f"cannot advance clock by {seconds}s")
        self._now += seconds
        return self._now

    def elapsed_since(self, t0: float) -> float:
        """Simulated seconds elapsed since an earlier reading ``t0``."""
        return self._now - t0

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}s)"
