"""Shared database buffer pool.

All random-access page reads of base tables, B⁺-Trees and persisted MV-PBT /
PBT partitions go through one :class:`BufferPool`.  The pool keeps per-file
request/hit counters — the observable of the paper's buffer-efficiency
experiment (Figure 12d: requests and cache-hit rate on index vs. base-table
nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..storage.page import SlottedPage
from ..storage.pagefile import PageFile
from .policy import LRUPolicy, ReplacementPolicy

if TYPE_CHECKING:
    from ..config import CostModel
    from ..obs.core import Observability
    from ..obs.registry import Metrics
    from ..sim.clock import SimClock


@dataclass
class FileBufferStats:
    """Buffer statistics for one file."""

    requests: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests


class BufferPool:
    """Page cache over :class:`PageFile` objects with write-back of dirty pages.

    Single-threaded simulation: no pinning/latching is required; mutators mark
    pages dirty and dirty victims are written back (random page write) at
    eviction time, matching PostgreSQL's background-writer cost attribution
    closely enough for the experiments.
    """

    def __init__(self, capacity_pages: int,
                 policy: ReplacementPolicy | None = None,
                 clock: "SimClock | None" = None,
                 cost: "CostModel | None" = None,
                 obs: "Observability | None" = None) -> None:
        self.capacity_pages = capacity_pages
        self._policy = policy if policy is not None else LRUPolicy()
        self._clock = clock
        self._page_cpu = cost.page_cpu if cost is not None else 0.0
        self._frames: dict[tuple[int, int], object] = {}
        self._dirty: set[tuple[int, int]] = set()
        self._files: dict[int, PageFile] = {}
        self.stats_by_file: dict[int, FileBufferStats] = {}
        self.evictions = 0
        self.dirty_writebacks = 0
        if obs is not None:
            obs.registry.register_source("buffer.pool", self.metrics)

    # ------------------------------------------------------------------ reads

    def get(self, file: PageFile, page_no: int) -> object:
        """Return page contents, reading from the device on a miss."""
        key = (file.file_id, page_no)
        payload = self._request(file, key)
        if payload is None:
            payload = file.read_page(page_no)
            self._admit(file, key, payload)
        return payload

    def get_or_create(self, file: PageFile, page_no: int,
                      factory: Callable[[], object]) -> object:
        """Return page contents, creating a fresh page on first touch.

        Used for newly allocated pages that have never been written: the
        factory builds the empty in-memory page without device I/O.
        """
        key = (file.file_id, page_no)
        payload = self._request(file, key)
        if payload is None:
            if file.has_contents(page_no):
                payload = file.read_page(page_no)
            else:
                payload = factory()
            self._admit(file, key, payload)
        return payload

    # ----------------------------------------------------------------- writes

    def mark_dirty(self, file: PageFile, page_no: int) -> None:
        """Flag a resident page as modified (written back on eviction/flush)."""
        key = (file.file_id, page_no)
        if key in self._frames:
            self._dirty.add(key)

    def put(self, file: PageFile, page_no: int, payload: object,
            dirty: bool = True) -> None:
        """Install freshly built page contents into the pool."""
        key = (file.file_id, page_no)
        if key in self._frames:
            self._frames[key] = payload
            self._policy.touch(key)
        else:
            self._admit(file, key, payload)
        if dirty:
            self._dirty.add(key)

    def flush(self, file: PageFile | None = None) -> int:
        """Write back dirty pages (all files, or one); returns pages written."""
        keys = [k for k in self._dirty
                if file is None or k[0] == file.file_id]
        for key in keys:
            self._writeback(key)
        return len(keys)

    def discard(self, file: PageFile, page_no: int) -> None:
        """Drop a page from the pool without write-back (page freed)."""
        key = (file.file_id, page_no)
        self._frames.pop(key, None)
        self._dirty.discard(key)
        self._policy.remove(key)

    def drop_file(self, file: PageFile) -> int:
        """Drop every cached page of one file without write-back.

        Crash recovery: the cache must not survive the reboot — recovery
        has to see exactly what the medium holds.  Returns pages dropped.
        """
        keys = [k for k in self._frames if k[0] == file.file_id]
        for key in keys:
            self._frames.pop(key, None)
            self._dirty.discard(key)
            self._policy.remove(key)
        return len(keys)

    # ------------------------------------------------------------- inspection

    def contains(self, file: PageFile, page_no: int) -> bool:
        return (file.file_id, page_no) in self._frames

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def stats_for(self, file: PageFile) -> FileBufferStats:
        return self._file_stats(file)

    def total_stats(self) -> FileBufferStats:
        total = FileBufferStats()
        for stats in self.stats_by_file.values():
            total.requests += stats.requests
            total.hits += stats.hits
        return total

    def metrics(self) -> "Metrics":
        """The ``buffer.pool.*`` view of this pool's own counters."""
        total = self.total_stats()
        return {"buffer.pool.lookups": total.requests,
                "buffer.pool.hits": total.hits,
                "buffer.pool.misses": total.misses,
                "buffer.pool.evictions": self.evictions,
                "buffer.pool.writebacks": self.dirty_writebacks,
                "buffer.pool.hit_rate": total.hit_rate,
                "buffer.pool.resident_pages": float(self.resident_pages)}

    # --------------------------------------------------------------- internal

    def _request(self, file: PageFile,
                 key: tuple[int, int]) -> object | None:
        """What one page request costs, hit or miss: a per-file request
        count and ``page_cpu`` on the simulated clock; a hit also counts
        and touches the replacement policy.  Returns the resident page, or
        None on a miss (the caller reads or builds it, then admits it)."""
        stats = self._file_stats(file)
        stats.requests += 1
        if self._clock is not None and self._page_cpu:
            self._clock.advance(self._page_cpu)
        payload = self._frames.get(key)
        if payload is None:
            return None
        stats.hits += 1
        self._policy.touch(key)
        return payload

    def _file_stats(self, file: PageFile) -> FileBufferStats:
        self._files[file.file_id] = file
        stats = self.stats_by_file.get(file.file_id)
        if stats is None:
            stats = FileBufferStats()
            self.stats_by_file[file.file_id] = stats
        return stats

    def _admit(self, file: PageFile, key: tuple[int, int],
               payload: object) -> None:
        self._files[file.file_id] = file
        while len(self._frames) >= self.capacity_pages:
            victim = self._policy.evict()
            victim_payload = self._frames.get(victim)
            # defence in depth: a slotted page mutated without an explicit
            # mark_dirty still carries its own dirty flag — never drop it
            if victim in self._dirty or (
                    isinstance(victim_payload, SlottedPage)
                    and victim_payload.dirty):
                self._writeback(victim)
            self._frames.pop(victim, None)
            self.evictions += 1
        self._frames[key] = payload
        self._policy.admit(key)

    def _writeback(self, key: tuple[int, int]) -> None:
        file = self._files[key[0]]
        payload = self._frames.get(key)
        if payload is not None:
            file.write_page(key[1], payload)
            if isinstance(payload, SlottedPage):
                payload.dirty = False
            self.dirty_writebacks += 1
        self._dirty.discard(key)
