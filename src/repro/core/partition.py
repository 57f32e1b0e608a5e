"""MV-PBT partitions.

* :class:`MemoryPartition` — the mutable ``P_N`` held in the partition
  buffer: leaf-node organised (page-sized leaves that split when full, giving
  the paper's ~67% average in-memory fill), ordered by the §4.3 composite
  sort key (search key ascending, then timestamp/sequence *descending* so
  newer records precede older ones within a key).
* :class:`PersistedPartition` — an immutable, dense-packed partition on
  storage: a :class:`~repro.index.runs.PersistedRun` plus partition metadata
  (range keys, minimum transaction timestamp, bloom / prefix-bloom filters,
  zone map) used to skip partitions during search and scan (§4.2, §4.7).
  On a durable tree the filters and zone map are the run's trailing filter
  block; a restored partition reads it on first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from ..errors import FilterBlockError, PageNotFoundError
from ..index.filters import (BloomFilter, PartitionFilters, PrefixBloomFilter,
                             ZoneMap, decode_filter_block)
from ..index.runs import PersistedRun
from ..storage.page import PAGE_HEADER_BYTES
from ..txn.snapshot import Snapshot
from .records import MVPBTRecord, ReferenceMode, record_size
from ..types import Key

#: sorts after any (-ts, -seq) pair — exclusive-bound probe component
_AFTER_KEY = float("inf")


class MemLeaf:
    """One in-memory leaf node of ``P_N``.

    Carries the page-header ``has_garbage`` flag of the cooperative GC
    (§4.6): scans set it when they flag records, updates purge before they
    insert.
    """

    __slots__ = ("sort_keys", "records", "bytes_used", "has_garbage")

    def __init__(self) -> None:
        self.sort_keys: list[Key] = []
        self.records: list[MVPBTRecord] = []
        self.bytes_used = 0
        self.has_garbage = False

    def insert(self, record: MVPBTRecord, nbytes: int) -> None:
        skey = record.sort_key()
        idx = bisect_left(self.sort_keys, skey)
        self.sort_keys.insert(idx, skey)
        self.records.insert(idx, record)
        self.bytes_used += nbytes

    def remove_at(self, idx: int, nbytes: int) -> None:
        del self.sort_keys[idx]
        del self.records[idx]
        self.bytes_used -= nbytes

    def __len__(self) -> int:
        return len(self.records)


class MemoryPartition:
    """The mutable partition ``P_N`` of one MV-PBT."""

    def __init__(self, number: int, mode: ReferenceMode,
                 page_size: int) -> None:
        self.number = number
        self.mode = mode
        self.leaf_capacity = page_size - PAGE_HEADER_BYTES
        self._leaves: list[MemLeaf] = [MemLeaf()]
        self._fences: list[Key] = []  # first sort_key of leaves[1:]
        #: per-chain registry (vid -> records) used by partition GC
        self._by_vid: dict[int, list[MVPBTRecord]] = {}
        self.bytes_used = 0
        self.record_count = 0

    # -------------------------------------------------------------- mutation

    def insert(self, record: MVPBTRecord) -> MemLeaf:
        """Insert in §4.3 order; returns the leaf that received the record."""
        nbytes = record_size(record, self.mode)
        idx = bisect_right(self._fences, record.sort_key())
        leaf = self._leaves[idx]
        leaf.insert(record, nbytes)
        self._by_vid.setdefault(record.vid, []).append(record)
        self.bytes_used += nbytes
        self.record_count += 1
        if leaf.bytes_used > self.leaf_capacity and len(leaf) > 1:
            self._split(idx)
        return leaf

    def chain(self, vid: int) -> list[MVPBTRecord]:
        """All records of one chain currently in this partition."""
        return list(self._by_vid.get(vid, ()))

    def remove_record(self, record: MVPBTRecord) -> int:
        """Remove one record (GC); returns the bytes reclaimed."""
        skey = record.sort_key()
        leaf_idx = min(bisect_right(self._fences, skey),
                       len(self._leaves) - 1)
        # the record sits in this leaf or (fence == skey edge) the one before
        for idx in (leaf_idx, leaf_idx - 1):
            if idx < 0:
                continue
            leaf = self._leaves[idx]
            pos = bisect_left(leaf.sort_keys, skey)
            while pos < len(leaf.records) and leaf.sort_keys[pos] == skey:
                if leaf.records[pos] is record:
                    nbytes = record_size(record, self.mode)
                    leaf.remove_at(pos, nbytes)
                    self.bytes_used -= nbytes
                    self.record_count -= 1
                    group = self._by_vid.get(record.vid)
                    if group is not None:
                        group.remove(record)
                        if not group:
                            del self._by_vid[record.vid]
                    return nbytes
                pos += 1
        return 0

    def _split(self, leaf_idx: int) -> None:
        leaf = self._leaves[leaf_idx]
        mid = len(leaf.records) // 2
        right = MemLeaf()
        right.sort_keys = leaf.sort_keys[mid:]
        right.records = leaf.records[mid:]
        moved = sum(record_size(r, self.mode) for r in right.records)
        right.bytes_used = moved
        right.has_garbage = leaf.has_garbage
        del leaf.sort_keys[mid:]
        del leaf.records[mid:]
        leaf.bytes_used -= moved
        self._leaves.insert(leaf_idx + 1, right)
        self._fences.insert(leaf_idx, right.sort_keys[0])

    # ----------------------------------------------------------------- reads

    def search(self, key: Key) -> Iterator[tuple[MemLeaf, MVPBTRecord]]:
        """Records whose key equals ``key``, newest first (§4.3 ordering)."""
        probe = (key,)
        start = max(0, bisect_right(self._fences, probe) - 1)
        for leaf_idx in range(start, len(self._leaves)):
            leaf = self._leaves[leaf_idx]
            lo = bisect_left(leaf.sort_keys, probe)
            if lo == len(leaf.sort_keys):
                continue
            emitted = False
            for idx in range(lo, len(leaf.records)):
                record = leaf.records[idx]
                if record.key != key:
                    return
                emitted = True
                yield leaf, record
            if not emitted:
                return

    def scan(self, lo: Key | None, hi: Key | None, *,
             lo_incl: bool = True,
             hi_incl: bool = True) -> Iterator[tuple[MemLeaf, MVPBTRecord]]:
        """Records with keys in range, in partition order.

        Copy-free: bisects to the start offset inside the first leaf and
        iterates records in place (no per-leaf list copies, no per-record
        lower-bound comparisons).  The iterator borrows the leaf lists —
        consume it before further inserts/GC on this partition, like any
        unlatched cursor.
        """
        if lo is None:
            start, probe = 0, None
        else:
            # sort keys are (key, -ts, -seq): a bare ``(lo,)`` sorts before
            # every record of key ``lo``; ``(lo, inf)`` sorts after them all
            probe = (lo,) if lo_incl else (lo, _AFTER_KEY)
            start = max(0, bisect_right(self._fences, probe) - 1)
        for leaf_idx in range(start, len(self._leaves)):
            leaf = self._leaves[leaf_idx]
            records = leaf.records
            if probe is not None:
                pos = bisect_left(leaf.sort_keys, probe)
                if pos < len(records):
                    probe = None    # found the range start; later leaves
                                    # begin at their first record
                # else: the whole leaf is below the range (the start leaf is
                # chosen one early — records equal to a fence key may sit in
                # the leaf before it); keep probing in the next leaf
            else:
                pos = 0
            for idx in range(pos, len(records)):
                record = records[idx]
                key = record.key
                if hi is not None and (key > hi or (not hi_incl and key == hi)):
                    return
                yield leaf, record

    def scan_slices(self, lo: Key | None, hi: Key | None, *,
                    lo_incl: bool = True,
                    hi_incl: bool = True) -> Iterator[tuple[MemLeaf, int, int]]:
        """The same range as :meth:`scan`, as per-leaf ``(leaf, pos, end)``
        slices instead of per-record yields.

        The batch scan pipeline's view of ``P_N``: one bisect pair per leaf
        replaces a per-record upper-bound comparison, and the caller merges
        whole slices against persisted pages.  Borrows the leaf lists like
        :meth:`scan` — consume before further inserts/GC.
        """
        if lo is None:
            start, probe = 0, None
        else:
            probe = (lo,) if lo_incl else (lo, _AFTER_KEY)
            start = max(0, bisect_right(self._fences, probe) - 1)
        # (hi, inf) sorts after every record of key hi, a bare (hi,) before
        # them all — the two exclusive upper probes of the §4.3 sort order
        hi_probe = ((hi, _AFTER_KEY) if hi_incl else (hi,)) \
            if hi is not None else None
        for leaf_idx in range(start, len(self._leaves)):
            leaf = self._leaves[leaf_idx]
            skeys = leaf.sort_keys
            if probe is not None:
                pos = bisect_left(skeys, probe)
                if pos == len(skeys):
                    continue    # whole leaf below the range (start leaf is
                                # chosen one early); keep probing
                probe = None
            else:
                pos = 0
            end = (len(skeys) if hi_probe is None
                   else bisect_left(skeys, hi_probe))
            if pos < end:
                yield leaf, pos, end
            if end < len(skeys):
                return          # range ended inside this leaf

    def iter_records(self) -> Iterator[MVPBTRecord]:
        for leaf in self._leaves:
            yield from leaf.records

    @property
    def leaves(self) -> list[MemLeaf]:
        return self._leaves

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def __len__(self) -> int:
        return self.record_count

    def __repr__(self) -> str:
        return (f"MemoryPartition(P{self.number}, records={self.record_count}, "
                f"bytes={self.bytes_used}, leaves={self.leaf_count})")


class PersistedPartition:
    """One immutable on-storage partition with its metadata.

    ``filters`` is what the build computed; None on a restored partition,
    which reads them from its run's trailer — the filter block — on the
    first use of :attr:`bloom`, :attr:`prefix_bloom` or :attr:`zone_map`
    (one buffer-pool request per block page) and keeps them.  A run
    without a trailer has no filters: every probe passes and every page
    counts as impure.
    """

    __slots__ = ("number", "run", "min_ts", "max_ts", "_filters")

    def __init__(self, number: int, run: PersistedRun[MVPBTRecord],
                 min_ts: int, max_ts: int,
                 filters: PartitionFilters | None = None) -> None:
        self.number = number
        self.run = run
        self.min_ts = min_ts
        self.max_ts = max_ts
        self._filters = filters

    @property
    def filters(self) -> PartitionFilters:
        """The partition's filters, read from its filter block on first
        use."""
        return self._filters or self._load_filters()

    def _load_filters(self) -> PartitionFilters:
        run = self.run
        if not run.trailer_page_nos:
            filters = PartitionFilters(None, None, None)
        else:
            try:
                filters = decode_filter_block(run.read_trailer())
            except (FilterBlockError, PageNotFoundError) as exc:
                raise FilterBlockError(
                    f"{run.file.name}: P{self.number} filter block "
                    f"(pages {run.trailer_page_nos}): {exc}") from exc
        self._filters = filters
        return filters

    @property
    def bloom(self) -> BloomFilter | None:
        return self.filters.bloom

    @property
    def prefix_bloom(self) -> PrefixBloomFilter | None:
        return self.filters.prefix_bloom

    @property
    def zone_map(self) -> ZoneMap | None:
        return self.filters.zone_map

    @property
    def record_count(self) -> int:
        return self.run.record_count

    @property
    def size_bytes(self) -> int:
        return self.run.size_bytes

    def possibly_visible_to(self, snapshot: Snapshot) -> bool:
        """Minimum-transaction-timestamp filter (§4.2): a partition whose
        oldest record is newer than the snapshot horizon holds nothing the
        snapshot can see *or that can invalidate something it sees* — unless
        the caller's own (always-visible) records may be inside."""
        if self.min_ts < snapshot.xmax:
            return True
        return self.min_ts <= snapshot.owner <= self.max_ts

    def overlaps(self, lo: Key | None, hi: Key | None) -> bool:
        """Partition range-key filter."""
        return self.run.overlaps(lo, hi)

    def search(self, key: Key) -> Iterator[MVPBTRecord]:
        yield from self.run.search(key)

    def scan(self, lo: Key | None, hi: Key | None, *,
             lo_incl: bool = True,
             hi_incl: bool = True) -> Iterator[MVPBTRecord]:
        yield from self.run.scan(lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)

    def __repr__(self) -> str:
        return (f"PersistedPartition(P{self.number}, "
                f"records={self.record_count}, bytes={self.size_bytes})")
