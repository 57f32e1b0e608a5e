"""Immutable persisted runs.

A :class:`PersistedRun` is the shared building block of every append-written
sorted structure in this library: PBT partitions, MV-PBT partitions and LSM
SSTables.  It packs an already-sorted record stream into leaf pages, appends
them to a page file with sequential extent-sized writes, and serves point and
range accesses through the shared buffer pool.

Construction is a **single streaming pass**: the record source may be any
iterable (a list, a ``heapq.merge`` of other runs, a generator pipeline) and
is consumed exactly once.  Pages are flushed extent by extent as they fill,
so building a run never holds more than one partially-packed leaf plus one
extent of finished pages — eviction and merge of arbitrarily large
partitions run in bounded builder memory.

Fence keys (the first key of each leaf) are kept in memory, modelling the
paper's observation that the higher levels of the tree structure are
"commonly buffered" (§4.2); only leaf accesses are charged I/O.

A builder may close a run with *trailer* pages — opaque payloads written
after the last leaf in the same final append (an MV-PBT partition's filter
block).  They are not leaves: no fence, no record, read only on request
(:meth:`PersistedRun.read_trailer`) and freed with the run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import (Any, Callable, Generic, Iterable, Iterator, Sequence,
                    TypeVar)

from ..buffer.pool import BufferPool
from ..errors import StorageError
from ..storage.page import PAGE_HEADER_BYTES
from ..storage.pagefile import PageFile
from ..types import Key

R = TypeVar("R")


class RunPage(Generic[R]):
    """Leaf page of a persisted run: a dense, immutable record array.

    Keys are materialised alongside the records so point probes can binary
    search without re-deriving keys on every access.
    """

    __slots__ = ("keys", "records", "_rows")

    def __init__(self, keys: list[Key], records: list[R]) -> None:
        self.keys = keys
        self.records = records
        self._rows: list[Any] | None = None

    def rows(self, make: Callable[[list[R]], list[Any]]) -> list[Any]:
        """Derived row cache, built once per page residency.

        The caller's ``make`` projects the (immutable) record array into
        whatever row representation its scan emits; the result is memoised
        for the lifetime of the buffered page, so repeated scans serve the
        projection by slicing instead of rebuilding it per record.  The
        page's immutability contract makes the cache sound: records never
        change after publication, so neither does the projection.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = make(self.records)
        return rows


class PersistedRun(Generic[R]):
    """Immutable sorted run of records packed into leaf pages.

    ``records`` may be any iterable in run order; it is consumed in one
    streaming pass and pages are appended to the file extent by extent as
    they fill (identical write pattern and page numbering to packing a
    materialised list, without ever holding the whole run).

    ``trailer``, called once the stream has ended (and only if it held a
    record), returns the run's trailer pages; they ride in the last
    append, spilling into a fresh extent, sized to them, only when the last
    one is full.
    """

    def __init__(self, file: PageFile, pool: BufferPool,
                 records: Iterable[R], *,
                 key_of: Callable[[R], Key],
                 size_of: Callable[[R], int],
                 fill_factor: float = 1.0,
                 page_hook: Callable[[list[Key], list[R], int], None]
                 | None = None,
                 trailer: Callable[[], Sequence[object]] | None = None
                 ) -> None:
        if not 0.0 < fill_factor <= 1.0:
            raise StorageError(f"bad fill factor: {fill_factor}")
        self.file = file
        self.pool = pool
        self.record_count = 0
        self.size_bytes = 0
        self.min_key: Key | None = None
        self.max_key: Key | None = None
        self._fences: list[Key] = []
        self.page_nos: list[int] = []
        self.trailer_page_nos: list[int] = []

        capacity = int((file.page_size - PAGE_HEADER_BYTES) * fill_factor)
        extent_pages = file.extent_pages
        pending: list[object] = []         # finished pages of the open extent
        cur_keys: list[Key] = []
        cur_records: list[R] = []
        used = 0
        last_key: Key | None = None
        for record in records:
            key = key_of(record)
            nbytes = size_of(record)
            if cur_records and used + nbytes > capacity:
                pending.append(RunPage(cur_keys, cur_records))
                self._fences.append(cur_keys[0])
                if page_hook is not None:
                    page_hook(cur_keys, cur_records, used)
                if len(pending) >= extent_pages:
                    self.page_nos += file.append_extents(pending)
                    pending = []
                cur_keys, cur_records, used = [], [], 0
            if self.min_key is None:
                self.min_key = key
            cur_keys.append(key)
            cur_records.append(record)
            used += nbytes
            self.size_bytes += nbytes
            self.record_count += 1
            last_key = key
        self.max_key = last_key
        if cur_records:
            pending.append(RunPage(cur_keys, cur_records))
            self._fences.append(cur_keys[0])
            if page_hook is not None:
                page_hook(cur_keys, cur_records, used)
        leaves = len(pending)
        if trailer is not None and self.record_count:
            pending.extend(trailer())
        if pending:
            page_nos = file.append_extents(pending, len(pending) - leaves)
            self.page_nos += page_nos[:leaves]
            self.trailer_page_nos = page_nos[leaves:]

    @classmethod
    def restore(cls, file: PageFile, pool: BufferPool, *,
                page_nos: list[int], fences: list[Key],
                record_count: int, size_bytes: int,
                min_key: Key | None, max_key: Key | None,
                trailer_page_nos: Sequence[int] = ()
                ) -> "PersistedRun[R]":
        """Re-attach a run to pages that already exist on the device.

        The crash-recovery path: all navigation metadata (fences, key range,
        counts, trailer page numbers) comes from the durable partition
        manifest, so re-attaching reads **zero** partition pages — leaves
        and trailer are only touched again on use, through the buffer pool.
        """
        if len(page_nos) != len(fences):
            raise StorageError(
                f"{file.name}: manifest fence/page mismatch "
                f"({len(fences)} fences, {len(page_nos)} pages)")
        run = object.__new__(cls)
        run.file = file
        run.pool = pool
        run.record_count = record_count
        run.size_bytes = size_bytes
        run.min_key = min_key
        run.max_key = max_key
        run._fences = list(fences)
        run.page_nos = list(page_nos)
        run.trailer_page_nos = list(trailer_page_nos)
        return run

    # ---------------------------------------------------------------- access

    @property
    def page_count(self) -> int:
        return len(self.page_nos)

    def overlaps(self, lo: Key | None, hi: Key | None) -> bool:
        """May any record key fall within [lo, hi]? (partition range keys)"""
        if self.min_key is None or self.max_key is None:
            return False
        if lo is not None and self.max_key < lo:
            return False
        if hi is not None and self.min_key > hi:
            return False
        return True

    def search(self, key: Key) -> Iterator[R]:
        """All records whose key equals ``key``, in run order."""
        if self.min_key is None or key < self.min_key or key > self.max_key:
            return
        # bisect_left: with duplicate keys, several consecutive fences can
        # equal the probe and the matching group starts at the page before
        # the first of them
        start = max(0, bisect_left(self._fences, key) - 1)
        for page_idx in range(start, len(self.page_nos)):
            if self._fences[page_idx] > key:
                break
            page = self._load(page_idx)
            lo = bisect_left(page.keys, key)
            if lo == len(page.keys):
                continue  # all keys below probe; duplicates may continue
            if page.keys[lo] != key:
                break     # keys jumped past the probe: no more matches
            hi = bisect_right(page.keys, key)
            records = page.records
            for idx in range(lo, hi):
                yield records[idx]
            if hi < len(page.keys):
                break     # matches ended within this page

    def scan(self, lo: Key | None, hi: Key | None, *,
             lo_incl: bool = True, hi_incl: bool = True) -> Iterator[R]:
        """Records with keys in the range, in run order.

        Copy-free: bisects to the start offset within the first page and
        iterates keys/records in place (no ``keys[pos:]`` slice copies).
        """
        if self.min_key is None:
            return
        if lo is not None:
            # bisect_left for inclusive bounds: with duplicate keys several
            # consecutive fences can equal ``lo`` and the matching group
            # starts at the page before the first of them (same reasoning
            # as in :meth:`search`)
            if lo_incl:
                start = max(0, bisect_left(self._fences, lo) - 1)
            else:
                start = max(0, bisect_right(self._fences, lo) - 1)
        else:
            start = 0
        for page_idx in range(start, len(self.page_nos)):
            page = self._load(page_idx)
            keys = page.keys
            records = page.records
            if lo is not None:
                pos = (bisect_left(keys, lo) if lo_incl
                       else bisect_right(keys, lo))
                lo = None  # subsequent pages start from their beginning
            else:
                pos = 0
            for idx in range(pos, len(keys)):
                key = keys[idx]
                if hi is not None and (key > hi or (not hi_incl and key == hi)):
                    return
                yield records[idx]

    def iter_all(self) -> Iterator[R]:
        """Every record, through the buffer pool (run order)."""
        for page_idx in range(len(self.page_nos)):
            yield from self._load(page_idx).records

    def iter_all_sequential(self) -> Iterator[R]:
        """Every record via sequential device reads (compaction path).

        Bypasses the buffer pool: compactions stream whole runs with large
        sequential reads and should neither pollute the pool nor be billed
        random-read prices.
        """
        for idx in range(0, len(self.page_nos), self.file.extent_pages):
            chunk = self.page_nos[idx:idx + self.file.extent_pages]
            self.file.device.read(self._addr(chunk[0]),
                                  len(chunk) * self.file.page_size)
            self.file.physical_reads += 1
            for page_no in chunk:
                page = self.file.peek(page_no)
                yield from page.records  # type: ignore[union-attr]

    def free(self) -> None:
        """Release all pages of the run, trailer included (after
        compaction/merge)."""
        for page_no in chain(self.page_nos, self.trailer_page_nos):
            self.pool.discard(self.file, page_no)
            self.file.free_page(page_no)
        self.page_nos = []
        self.trailer_page_nos = []
        self._fences = []

    def read_trailer(self) -> list[object]:
        """The trailer pages' contents, read past the buffer pool as one
        sequential request per run of contiguous pages — one request
        for a block inside one extent
        (:meth:`~repro.storage.pagefile.PageFile.read_pages_sequential`).

        The caller decodes them once and keeps what it decoded, so the
        pages never hold pool frames.
        """
        return self.file.read_pages_sequential(self.trailer_page_nos)

    @property
    def fence_keys(self) -> list[Key]:
        """First key of each leaf page (read-only view for pruning)."""
        return self._fences

    def load_page(self, page_idx: int) -> RunPage[R]:
        """Leaf ``page_idx`` through the buffer pool (batch scan path)."""
        return self._load(page_idx)

    # -------------------------------------------------------------- internal

    def _load(self, page_idx: int) -> RunPage[R]:
        page = self.pool.get(self.file, self.page_nos[page_idx])
        if not isinstance(page, RunPage):
            raise StorageError(
                f"{self.file.name}: page {self.page_nos[page_idx]} "
                f"is not a run page")
        return page

    def _addr(self, page_no: int) -> int:
        return self.file._addresses[page_no]

    def __repr__(self) -> str:
        return (f"PersistedRun(records={self.record_count}, "
                f"pages={self.page_count}, bytes={self.size_bytes})")
