"""blktrace-style I/O trace.

The paper's Figure 12c records, with ``blktrace``/``blkparse``, the logical
block address of every write during a partition eviction and shows the
pattern is sequential.  :class:`IOTrace` captures the same observable from
the simulated device: (simulated time, LBA, sectors, R/W).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

SECTOR_BYTES = 512

#: listener signature: (time, lba, nbytes, kind) per device request.
TraceListener = Callable[[float, int, int, str], None]


@dataclass(frozen=True)
class TraceEntry:
    """One traced I/O request."""

    time: float      #: simulated time at request issue, seconds
    lba: int         #: logical block address, in 512-byte sectors
    sectors: int     #: request length in sectors
    kind: str        #: "R" or "W"

    @property
    def end_lba(self) -> int:
        return self.lba + self.sectors


class IOTrace:
    """Append-only capture of device requests.

    Tracing is off by default; benchmarks enable it around the region of
    interest (e.g. one partition eviction) to keep memory bounded.
    """

    def __init__(self) -> None:
        self._entries: list[TraceEntry] = []
        self._enabled = False
        self._listeners: list[TraceListener] = []

    def add_listener(self, listener: TraceListener) -> None:
        """Call ``listener(time, lba, nbytes, kind)`` for **every** device
        request, independent of the capture flag (the observability layer
        bridges device I/O into its event stream through this hook)."""
        self._listeners.append(listener)

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def enabled(self) -> bool:
        return self._enabled

    def record(self, time: float, lba: int, nbytes: int, kind: str) -> None:
        for listener in self._listeners:
            listener(time, lba, nbytes, kind)
        if not self._enabled:
            return
        sectors = max(1, nbytes // SECTOR_BYTES)
        self._entries.append(TraceEntry(time, lba, sectors, kind))

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def entries(self, kind: str | None = None) -> list[TraceEntry]:
        """All entries, optionally filtered to ``"R"`` or ``"W"``."""
        if kind is None:
            return list(self._entries)
        return [e for e in self._entries if e.kind == kind]

    def sequential_fraction(self, kind: str = "W") -> float:
        """Fraction of requests that continue the previous request's LBA run.

        This is the headline number of Figure 12c: a partition eviction should
        be (near-)fully sequential, i.e. a fraction close to 1.0.  Requests
        that start exactly at the previous request's end LBA count as
        sequential; the first request is not counted either way.
        """
        entries = self.entries(kind)
        if len(entries) < 2:
            return 1.0
        sequential = 0
        for prev, cur in zip(entries, entries[1:]):
            if cur.lba == prev.end_lba:
                sequential += 1
        return sequential / (len(entries) - 1)

    def lba_span(self, kind: str = "W") -> tuple[int, int]:
        """(min LBA, max end-LBA) over traced requests of ``kind``."""
        entries = self.entries(kind)
        if not entries:
            return (0, 0)
        return (min(e.lba for e in entries), max(e.end_lba for e in entries))
