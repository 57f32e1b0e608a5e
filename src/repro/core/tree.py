"""The Multi-Version Partitioned B-Tree (paper §4).

An MV-PBT keeps one mutable in-memory partition ``P_N`` (in the shared
partition buffer) plus a list of immutable persisted partitions.  All
modifications become *records* in ``P_N`` (§4.1/§4.2):

=====================  =====================================================
operation              record(s) inserted into ``P_N``
=====================  =====================================================
INSERT                 regular record (new version's rid + timestamp)
non-key UPDATE         replacement record (new rid/timestamp + old rid)
index-key UPDATE       anti record at the old key + replacement at the new
DELETE                 tombstone record (old rid + deleting timestamp)
=====================  =====================================================

Searches and scans process partitions newest-to-oldest, gated by partition
filters (range keys, minimum timestamp, bloom / prefix-bloom), and feed the
records to the index-only visibility check — returning exactly the entries
visible to the calling transaction, without touching the base table.

Setting ``index_only_visibility=False`` (together with ``enable_gc=False``)
reproduces the paper's ablation (Figure 12a, lower bars): the structure then
behaves like a version-oblivious PBT.  The walk stays the same; only the
checker changes — a :class:`~repro.core.visibility.CandidateChecker` passes
every matter record as a candidate the executor must resolve against the
base table, and admits every partition and page the min-timestamp filters
would prune.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import (TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple,
                    Sequence, TypeAlias)

from ..buffer.partition_buffer import PartitionBuffer
from ..buffer.pool import BufferPool
from ..errors import ConfigError, UniqueViolationError
from ..index.filters import PrefixBloomFilter
from ..storage.keycodec import encode_key
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..table.visibility import all_visible_before
from ..txn.manager import TransactionManager
from ..txn.snapshot import Snapshot
from ..txn.transaction import Transaction, Writer
from ..types import JSONDict, Key
from .gc import GCStats, purge_leaf
from .partition import MemLeaf, MemoryPartition, PersistedPartition
from .records import MVPBTRecord, RecordType, ReferenceMode
from .visibility import CandidateChecker, Visibility, VisibilityChecker

if TYPE_CHECKING:
    from ..durability.controller import DurabilityController
    from ..durability.manifest import IndexManifest
    from ..obs.core import Observability
    from ..obs.registry import Metrics

#: one batch-scan segment: ``(keys, records, pos, end, leaf, rows)`` — a
#: contiguous already-sorted slice ``[pos, end)`` of one partition (a whole
#: persisted leaf page or one ``P_N`` leaf).  ``keys`` aligns with
#: ``records``; ``rows`` is non-None for a zone-pure persisted page whose
#: every timestamp lies below the snapshot's committed-visible watermark —
#: it holds the page's pre-materialised :class:`SearchHit` rows (cached on
#: the :class:`RunPage` for its buffer residency), so visibility degrades
#: to an anti-matter probe over ready-made rows, or a bare list slice.
#: ``records`` None marks a *promise*: ``keys`` is the lone fence key of a
#: page not loaded yet, and the source's next segment is that page
_Batch: TypeAlias = (
    "tuple[list[Key], list[MVPBTRecord] | None, int, int, MemLeaf | None,"
    " list[SearchHit] | None]")


class SearchHit(NamedTuple):
    """One visible index entry returned by an index-only search/scan.

    The partition number and timestamp columns are internal (the paper's
    ``set_return_format`` hides them); they are exposed here read-only for
    diagnostics and tests.
    """

    key: Key
    rid: RecordID
    vid: int
    ts: int
    payload: object


def _hit_rows(records: list[MVPBTRecord]) -> list[SearchHit]:
    """Project a zone-pure page's record array into its SearchHit rows.

    Cached on the :class:`RunPage` (see ``RunPage.rows``): built once per
    page residency, reused by every fast-path scan over the page.  Only
    pure pages are ever projected, so every record maps to exactly one
    row.  ``_make`` is ``classmethod(tuple.__new__)`` — the whole build
    stays in C apart from the attribute reads.
    """
    make = SearchHit._make
    return [make((r.key, r.rid_new, r.vid, r.ts, r.payload))
            for r in records]


class MVPBTStats:
    """Operation counters of one MV-PBT."""

    __slots__ = ("inserts", "replacements", "anti_records", "tombstones",
                 "searches", "scans", "hits_returned", "records_checked",
                 "partitions_skipped_bloom", "partitions_skipped_mints",
                 "partitions_skipped_range", "evictions", "unique_checks",
                 "unique_fast_negatives", "merges", "bulk_loads",
                 "bytes_ingested", "bytes_written", "pages_batch_decoded",
                 "pages_skipped_zonemap", "pages_skipped_mints",
                 "zero_copy_bytes")

    def __init__(self) -> None:
        self.inserts = 0
        self.replacements = 0
        self.anti_records = 0
        self.tombstones = 0
        self.searches = 0
        self.scans = 0
        self.hits_returned = 0
        self.records_checked = 0
        self.partitions_skipped_bloom = 0
        self.partitions_skipped_mints = 0
        self.partitions_skipped_range = 0
        self.evictions = 0
        self.unique_checks = 0
        self.unique_fast_negatives = 0
        self.merges = 0
        self.bulk_loads = 0
        #: logical bytes entering the write path (evicted P_N contents,
        #: bulk-loaded entries)
        self.bytes_ingested = 0
        #: physical bytes written by partition builds (eviction + merge
        #: rewrites + bulk loads)
        self.bytes_written = 0
        #: leaf pages fed whole to the batch scan pipeline
        self.pages_batch_decoded = 0
        #: leaf pages skipped by zone-map key bounds (fence keys)
        self.pages_skipped_zonemap = 0
        #: leaf pages skipped by zone-map min-timestamp gating
        self.pages_skipped_mints = 0
        #: accounted payload bytes served by reference (no per-record copy)
        self.zero_copy_bytes = 0

    @property
    def write_amplification(self) -> float:
        """Physical bytes written per logical byte ingested (§1/§6: the
        MV-PBT selling point vs. LSM leveling is keeping this near 1)."""
        if self.bytes_ingested == 0:
            return 0.0
        return self.bytes_written / self.bytes_ingested


#: the ``mvpbt.*`` counter views: metric name -> the ``MVPBTStats`` field
#: it sums over the trees
_STATS_VIEWS = {
    "mvpbt.search.count": "searches", "mvpbt.scan.count": "scans",
    "mvpbt.scan.pages_batch_decoded": "pages_batch_decoded",
    "mvpbt.scan.zero_copy_bytes": "zero_copy_bytes",
    "mvpbt.scan.pages_skipped_zone_map": "pages_skipped_zonemap",
    "mvpbt.scan.pages_skipped_min_ts": "pages_skipped_mints",
    "mvpbt.prune.bloom": "partitions_skipped_bloom",
    "mvpbt.prune.zone_map": "partitions_skipped_range",
    "mvpbt.prune.min_ts": "partitions_skipped_mints",
    "mvpbt.evict.count": "evictions", "mvpbt.merge.count": "merges",
    "mvpbt.bulk_load.count": "bulk_loads",
}


def tree_metrics(trees: Iterable["MVPBT"]) -> "Metrics":
    """The ``mvpbt.*`` registry view: sums of the trees' own ``stats`` /
    ``gc_stats`` counters, and their partition count as a gauge."""
    trees = list(trees)
    metrics: Metrics = {name: sum(getattr(t.stats, field) for t in trees)
                        for name, field in _STATS_VIEWS.items()}
    metrics["mvpbt.gc.purged_eviction"] = sum(
        t.gc_stats.purged_eviction for t in trees)
    metrics["mvpbt.gc.purged_page_level"] = sum(
        t.gc_stats.purged_page_level for t in trees)
    metrics["mvpbt.partitions"] = float(sum(t.partition_count for t in trees))
    return metrics


class MVPBT:
    """Version-aware partitioned B-tree index."""

    #: candidates are recordIDs, never VIDs the table's map resolves
    indirection = False

    def __init__(self, name: str, file: PageFile, pool: BufferPool,
                 partition_buffer: PartitionBuffer,
                 manager: TransactionManager, *,
                 unique: bool = False,
                 mode: ReferenceMode = ReferenceMode.PHYSICAL,
                 use_bloom: bool = True,
                 enable_gc: bool = True,
                 index_only_visibility: bool = True,
                 reconcile: bool | None = None,
                 first_hit_only: bool = False,
                 max_partitions: int | None = None,
                 merge_fanout: int = 4,
                 obs: "Observability | None" = None) -> None:
        self.name = name
        self.file = file
        self.pool = pool
        self.partition_buffer = partition_buffer
        self.manager = manager
        self.unique = unique
        self.mode = mode
        #: build and probe the partition filters: the bloom filter and, on
        #: composite keys, the prefix bloom filter (False = the "no
        #: filters" ablation)
        self.use_bloom = use_bloom
        self.enable_gc = enable_gc
        self.index_only_visibility = index_only_visibility
        #: trigger an on-line merge step when the persisted-partition count
        #: exceeds this (the paper's "system-transaction merge steps");
        #: None = off
        self.max_partitions = max_partitions
        #: tiered merge width: each triggered merge step combines (at least)
        #: this many adjacent partitions — the cheapest contiguous window by
        #: total bytes — instead of merging ALL partitions
        if merge_fanout < 2:
            raise ConfigError(
                f"merge_fanout must be >= 2: {merge_fanout}")
        self.merge_fanout = merge_fanout
        #: stop point lookups at the first visible hit even when not unique
        #: (KV semantics: one live version per key; paper's point-lookup
        #: early termination, §5 "Partition Filters")
        self.first_hit_only = first_hit_only
        #: reconcile same-key regular records at eviction (§4.7);
        #: defaults to on for non-unique indices
        self.reconcile = (not unique) if reconcile is None else reconcile

        self.stats = MVPBTStats()
        self.gc_stats = GCStats()
        # observability: the registry reads ``stats`` / ``gc_stats``
        # through :func:`tree_metrics`; only the per-scan hit histogram,
        # which no counter holds, is recorded here (DESIGN.md §13)
        self._obs = obs
        if obs is not None:
            from ..obs.registry import COUNT_BUCKETS
            self._m_scan_hits = obs.registry.histogram("mvpbt.scan.hits",
                                                       COUNT_BUCKETS)
        self._next_seq = 0
        self._mem = MemoryPartition(0, mode, file.page_size)
        self._persisted: list[PersistedPartition] = []
        #: set by DurabilityController.register; when present, committed
        #: P_N mutations flow into the write-ahead log
        self._durability: DurabilityController | None = None
        #: per-transaction mutation buffers awaiting their commit-time WAL
        #: append (txid -> records, insertion order).  A key stays until
        #: its transaction ends, even once an eviction emptied the buffer:
        #: its presence is the evidence that the transaction logged here
        self._wal_pending: dict[int, list[MVPBTRecord]] = {}
        partition_buffer.register(self)

    # ------------------------------------------------------------ operations

    def insert(self, txn: Writer, key: Key, rid_new: RecordID,
               vid: int, payload: object = None) -> None:
        """INSERT: regular record for the tuple's initial version."""
        txn.require_active()
        key = tuple(key)
        if (self.unique and isinstance(txn, Transaction)
                and not self._unique_check_passes(txn, key)):
            raise UniqueViolationError(
                f"{self.name}: duplicate key {key}")
        self._add_logged(MVPBTRecord(key, txn.id, self._seq(),
                                     RecordType.REGULAR, vid,
                                     rid_new=rid_new, payload=payload), txn)
        self.stats.inserts += 1

    def update_nonkey(self, txn: Writer, key: Key, rid_new: RecordID,
                      rid_old: RecordID, vid: int,
                      payload: object = None) -> None:
        """Non-key UPDATE: replacement record (new matter + anti-matter)."""
        txn.require_active()
        self._add_logged(MVPBTRecord(tuple(key), txn.id, self._seq(),
                                     RecordType.REPLACEMENT, vid,
                                     rid_new=rid_new, rid_old=rid_old,
                                     payload=payload), txn)
        self.stats.replacements += 1

    def update_key(self, txn: Writer, old_key: Key, new_key: Key,
                   rid_new: RecordID, rid_old: RecordID, vid: int,
                   payload: object = None) -> None:
        """Index-key UPDATE: anti record at the old key plus a replacement
        record at the new key (§4.1 "Anti-Records")."""
        txn.require_active()
        new_key = tuple(new_key)
        if (self.unique and isinstance(txn, Transaction)
                and not self._unique_check_passes(txn, new_key)):
            raise UniqueViolationError(
                f"{self.name}: duplicate key {new_key}")
        self._add_logged(MVPBTRecord(tuple(old_key), txn.id, self._seq(),
                                     RecordType.ANTI, vid, rid_old=rid_old),
                         txn)
        self.stats.anti_records += 1
        self._add_logged(MVPBTRecord(new_key, txn.id, self._seq(),
                                     RecordType.REPLACEMENT, vid,
                                     rid_new=rid_new, rid_old=rid_old,
                                     payload=payload), txn)
        self.stats.replacements += 1

    def delete(self, txn: Writer, key: Key, rid_old: RecordID,
               vid: int) -> None:
        """DELETE: tombstone record terminating the whole version chain."""
        txn.require_active()
        self._add_logged(MVPBTRecord(tuple(key), txn.id, self._seq(),
                                     RecordType.TOMBSTONE, vid,
                                     rid_old=rid_old), txn)
        self.stats.tombstones += 1

    def _unique_check_passes(self, txn: Transaction, key: Key) -> bool:
        """Unique-constraint check with a negative-lookup fast path.

        Fresh-key inserts are the common case (TPC-C new-order: every order
        id is new), and for those the full visibility-checked :meth:`search`
        is pure overhead.  A key that no in-memory leaf holds and that every
        persisted partition's range + bloom filter rules out cannot have a
        visible version, so the check passes without a search.  Any filter
        pass (or absent filter) falls back to the exact search.  Filter
        probes go through :meth:`BloomFilter.may_contain`, leaving the
        query-path effectiveness counters untouched.
        """
        self.stats.unique_checks += 1
        definitely_new = True
        for _leaf, _record in self._mem.search(key):
            definitely_new = False
            break
        if definitely_new:
            encoded = encode_key(key) if self.use_bloom else b""
            for part in self._persisted:
                if not part.overlaps(key, key):
                    continue
                if (self.use_bloom and part.bloom is not None
                        and not part.bloom.may_contain(encoded)):
                    continue
                definitely_new = False
                break
        if definitely_new:
            self.stats.unique_fast_negatives += 1
            return True
        return not self.search(txn, key)

    # ---------------------------------------------------------------- search

    def search(self, txn: Transaction, key: Key) -> list[SearchHit]:
        """Index-only point lookup (Algorithm 1): visible entries for ``key``
        (unchecked candidates on a version-oblivious tree).

        ``unique`` and ``first_hit_only`` stop the walk at the first hit
        only when the checker is exact: a candidate may be invisible, so a
        version-oblivious tree returns every one.
        """
        key = tuple(key)
        self.stats.searches += 1
        checker = self._checker(txn)
        snapshot = checker.snapshot
        hits: list[SearchHit] = []
        stop_early = (self.unique or self.first_hit_only) and checker.exact

        for leaf, record in self._mem.search(key):
            self._classify(checker, record, hits, leaf)
            if stop_early and hits:
                break

        if not (stop_early and hits):
            encoded = encode_key(key) if self.use_bloom else b""
            for part in reversed(self._persisted):
                if not part.possibly_visible_to(snapshot):
                    self.stats.partitions_skipped_mints += 1
                    continue
                if not part.overlaps(key, key):
                    self.stats.partitions_skipped_range += 1
                    continue
                bloom = part.bloom if self.use_bloom else None
                if bloom is not None and not bloom.query(encoded):
                    self.stats.partitions_skipped_bloom += 1
                    continue
                matched = False
                for record in part.search(key):
                    matched = True
                    self._classify(checker, record, hits, None)
                    if stop_early and hits:
                        break
                if bloom is not None:
                    bloom.report_pass_outcome(matched)
                if stop_early and hits:
                    break

        self.stats.records_checked += checker.records_processed
        self.stats.hits_returned += len(hits)
        return hits

    def scan_chunks(self, txn: Transaction, lo: Key | None = None,
                    hi: Key | None = None, *, lo_incl: bool = True,
                    hi_incl: bool = True, limit: int | None = None
                    ) -> Iterator[list[SearchHit]]:
        """Index-only range scan as a stream of hit *chunks* in key order —
        the one scan entry point; :meth:`cursor`, :meth:`range_scan` and
        :meth:`scan_limit` are views of it.

        All partitions are k-way heap-merged on the §4.3 composite order —
        search key ascending, then partition number and timestamp/sequence
        *descending* — so per key the records arrive in exactly the §4.4
        processing order (newest partition first, newest change first) the
        anti-matter cascade requires, while hits stream out in global key
        order without materialising or re-sorting the range.  A chunk is
        the visible part of one merged page slice (all candidates when
        version-oblivious).

        Partition filters (range keys, minimum timestamp, prefix bloom) are
        applied when the stream starts; each surviving partition is one
        lazy source, so a consumer that stops early — or a ``limit`` —
        leaves the pages the merge never got to unread.  The ``limit``
        reaches the batch classifier: no record past the ``limit``-th
        visible hit is classified, so ``hits_returned``,
        ``records_checked`` and this scan's ``mvpbt.scan.hits``
        observation book what was classified.  The cut is exact because
        the §4.4 cascade only reaches forward: a record's visibility
        depends on the records before it in processing order, so the first
        ``limit`` hits are final once found.  Records past the cut are not
        GC-flagged by this scan (§4.6 phase 1 rides only on work a scan
        does).  The one trim left here is for a REGULAR_SET record that
        straddles the cut with several hits.  The stream borrows the
        partitions it iterates: consume it before further modifications
        of this tree (like any unlatched database cursor).
        """
        stats = self.stats
        stats.scans += 1
        obs = self._obs
        if limit is not None and limit <= 0:
            if obs is not None:
                self._m_scan_hits.observe(0)
            return
        checker = self._checker(txn)
        returned = 0
        chunks = self._scan_hit_batches(
            checker, lo, hi, lo_incl, hi_incl,
            sys.maxsize if limit is None else limit)
        try:
            for chunk in chunks:
                returned += len(chunk)
                if limit is not None and returned > limit:
                    del chunk[limit - returned:]
                yield chunk
        finally:
            # runs on exhaustion *and* on early close (GeneratorExit)
            stats.records_checked += checker.records_processed
            if obs is not None:
                self._m_scan_hits.observe(returned)

    def cursor(self, txn: Transaction, lo: Key | None = None,
               hi: Key | None = None, *, lo_incl: bool = True,
               hi_incl: bool = True) -> Iterator[SearchHit]:
        """:meth:`scan_chunks` flattened to one hit at a time, for callers
        that count or peek; closing it closes the chunk stream."""
        chunks = self.scan_chunks(txn, lo, hi, lo_incl=lo_incl,
                                  hi_incl=hi_incl)
        try:
            for chunk in chunks:
                yield from chunk
        finally:
            chunks.close()

    def range_scan(self, txn: Transaction, lo: Key | None,
                   hi: Key | None, *, lo_incl: bool = True,
                   hi_incl: bool = True) -> list[SearchHit]:
        """Index-only range scan (Algorithm 2): visible entries, key order
        (already sorted — no collect-then-sort pass)."""
        return list(chain.from_iterable(self.scan_chunks(
            txn, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)))

    def scan_limit(self, txn: Transaction, lo: Key | None, limit: int,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True) -> list[SearchHit]:
        """The first ``limit`` visible entries of the range, assembled
        chunk-wise in C — no per-hit generator resumption (YCSB workload
        E, LIMIT queries, bounded slice pulls)."""
        return list(chain.from_iterable(self.scan_chunks(
            txn, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl, limit=limit)))

    # -------------------------------------------------------- scan pipeline

    def point_candidates(self, txn: Transaction,
                         key: Key) -> list[RecordID]:
        """The recordIDs of :meth:`search`, to resolve in the table."""
        return [hit.rid for hit in self.search(txn, key)]

    def range_candidates(self, txn: Transaction, lo: Key | None,
                         hi: Key | None, *, lo_incl: bool = True,
                         hi_incl: bool = True) -> list[RecordID]:
        return [hit.rid for hit in self.range_scan(
            txn, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)]

    def purge(self, removed_rids: set[RecordID],
              dropped_vids: set[int]) -> None:
        """Nothing after a table vacuum: partition GC (§4.6) does it."""

    def _scan_hit_batches(self, checker: VisibilityChecker,
                          lo: Key | None, hi: Key | None, lo_incl: bool,
                          hi_incl: bool, want: int
                          ) -> Iterator[list[SearchHit]]:
        """Page-at-a-time scan: merge whole sorted *segments* and emit hits
        in chunks.

        Sources yield :data:`_Batch` segments (persisted leaf pages, ``P_N``
        leaf slices).  A three-entry heap of ``(head key, -pno)`` pairs
        orders the segments; each step cuts the winning segment at the
        runner-up's head key with one bisect and classifies the whole cut
        slice in a tight loop — ~one list append per merged record, no
        per-record heap traffic or generator resumption.  Emission order is
        that of a record-at-a-time merge (the reference model the property
        tests compare against): within one key all records of a newer
        partition precede every older partition's, so cutting at
        ``bisect_right`` for the higher-priority segment (``bisect_left``
        otherwise) preserves the §4.3 global order the §4.4 anti-matter
        cascade requires.

        A persisted source enters the heap by a *promise* where it can: the
        fence key of its next page is that page's first key, so it orders
        the source exactly as the loaded page would, and the page is asked
        of the buffer pool only when the merge pops it.

        ``want`` is the number of hits the scan still needs: each slice is
        classified only up to it, and the stream ends with the chunk that
        reaches it, before any further page is asked for.
        """
        stats = self.stats
        snapshot = checker.snapshot
        watermark = all_visible_before(snapshot, self.manager.commit_log)
        gens: list[Iterator[_Batch]] = [
            self._mem_batches(lo, hi, lo_incl, hi_incl)]
        negs: list[int] = [-self._mem.number]
        # the scan's fixed key prefix, encoded once per filter width (one
        # width per tree in practice), then probed in every partition
        probe_columns = 0
        probe: bytes | None = None
        for part in self._persisted:
            if not part.possibly_visible_to(snapshot):
                stats.partitions_skipped_mints += 1
                continue
            if not part.overlaps(lo, hi):
                stats.partitions_skipped_range += 1
                continue
            gate = part.prefix_bloom
            if gate is not None:
                if gate.prefix_columns != probe_columns:
                    probe_columns = gate.prefix_columns
                    probe = gate.scan_probe(lo, hi)
                if probe is None:
                    gate = None
                elif not gate.query(probe):
                    stats.partitions_skipped_bloom += 1
                    continue
            gens.append(self._part_batches(part, lo, hi, lo_incl, hi_incl,
                                           watermark, snapshot, gate))
            negs.append(-part.number)

        emit = self._emit_batch
        current: dict[int, _Batch] = {}
        heap: list[tuple[Key, int, int]] = []
        for sid, gen in enumerate(gens):
            first = next(gen, None)
            if first is not None:
                current[sid] = first
                heap.append((first[0][first[2]], negs[sid], sid))
        heapq.heapify(heap)

        while heap:
            if len(heap) == 1:
                # lone survivor: drain it segment-wise, no more cutting
                sid = heap[0][2]
                gen = gens[sid]
                batch: _Batch | None = current[sid]
                while batch is not None:
                    _keys, records, pos, end, leaf, rows = batch
                    if records is not None:     # a promise just loads
                        chunk = emit(checker, records, pos, end, leaf, rows,
                                     want)
                        if chunk:
                            stats.hits_returned += len(chunk)
                            want -= len(chunk)
                            yield chunk
                            if want <= 0:
                                return
                    batch = next(gen, None)
                return
            _head, neg, sid = heapq.heappop(heap)
            keys, records, pos, end, leaf, rows = current[sid]
            if records is None:
                # the merge reached a promised page: load it now
                keys, records, pos, end, leaf, rows = next(gens[sid])
            bound_key, bound_neg, _sid = heap[0]
            # the popped head is the minimum, so at key == bound_key the
            # smaller neg (newer partition) owns the whole key group
            if neg < bound_neg:
                cut = bisect_right(keys, bound_key, pos, end)
            else:
                cut = bisect_left(keys, bound_key, pos, end)
            chunk = emit(checker, records, pos, cut, leaf, rows, want)
            if chunk:
                stats.hits_returned += len(chunk)
                want -= len(chunk)
                yield chunk
                if want <= 0:
                    return
            if cut < end:
                current[sid] = (keys, records, cut, end, leaf, rows)
                heapq.heappush(heap, (keys[cut], neg, sid))
            else:
                nxt = next(gens[sid], None)
                if nxt is None:
                    del current[sid]
                else:
                    current[sid] = nxt
                    heapq.heappush(heap, (nxt[0][nxt[2]], neg, sid))

    def _mem_batches(self, lo: Key | None, hi: Key | None, lo_incl: bool,
                     hi_incl: bool) -> Iterator[_Batch]:
        """``P_N`` as batch segments: one per leaf in range, never fast
        (records are mutable and phase-1 GC flagging needs the leaf)."""
        for leaf, pos, end in self._mem.scan_slices(lo, hi, lo_incl=lo_incl,
                                                    hi_incl=hi_incl):
            records = leaf.records[pos:end]
            keys = [r.key for r in records]
            yield (keys, records, 0, len(records), leaf, None)

    def _part_batches(self, part: PersistedPartition, lo: Key | None,
                      hi: Key | None, lo_incl: bool, hi_incl: bool,
                      watermark: int, snapshot: Snapshot,
                      gate: PrefixBloomFilter | None) -> Iterator[_Batch]:
        """One persisted partition as batch segments: whole leaf pages,
        zone-map gated.

        Fence keys bound the page walk on both ends (key pruning) and the
        zone map's per-page min-timestamp window drops pages no record of
        which the snapshot can see — sound because an invisible record
        never registers anti-matter (the visibility check rejects it
        *before* registration), so skipping it wholesale changes nothing
        downstream.  Pages marked pure whose ``max_ts`` lies below the
        committed-visible watermark flow on as fast segments carrying the
        page's cached :class:`SearchHit` rows.

        Only the page ``lo`` falls inside has to be read to learn the
        source's head key.  Every other page is in range from its first
        key on, and that key is its fence: such a page is announced by a
        promise segment and loaded when the consumer resumes — which the
        merge does on reaching it, and a LIMIT scan or an abandoned cursor
        never does for the partitions above its result.
        """
        stats = self.stats
        run = part.run
        zone = part.zone_map
        fences = run.fence_keys
        npages = run.page_count
        xmax = snapshot.xmax
        owner = snapshot.owner
        if lo is not None:
            if lo_incl:
                start = max(0, bisect_left(fences, lo) - 1)
            else:
                start = max(0, bisect_right(fences, lo) - 1)
        else:
            start = 0
        stats.pages_skipped_zonemap += start
        matched = False
        lo_probe = lo
        for idx in range(start, npages):
            fence = fences[idx]
            if hi is not None and (fence > hi
                                   or (not hi_incl and fence == hi)):
                stats.pages_skipped_zonemap += npages - idx
                break
            if zone is not None and not zone.page_possibly_visible(
                    idx, xmax, owner):
                stats.pages_skipped_mints += 1
                continue
            if (lo_probe is None or fence > lo_probe
                    or (lo_incl and fence == lo_probe)):
                lo_probe = None
                yield ([fence], None, 0, 1, None, None)
            page = run.load_page(idx)
            keys = page.keys
            nkeys = len(keys)
            stats.pages_batch_decoded += 1
            if zone is not None:
                stats.zero_copy_bytes += zone.page_bytes[idx]
            if lo_probe is not None:
                pos = (bisect_left(keys, lo_probe) if lo_incl
                       else bisect_right(keys, lo_probe))
                if pos == nkeys:
                    continue    # whole page below the range (duplicate-key
                                # fence edge); keep probing the next page
                lo_probe = None
            else:
                pos = 0
            end = nkeys
            done = False
            if hi is not None:
                last = keys[-1]
                if last > hi or (not hi_incl and last == hi):
                    end = (bisect_right(keys, hi) if hi_incl
                           else bisect_left(keys, hi))
                    done = True
            if pos < end:
                rows = None
                if (zone is not None and zone.page_pure[idx] != 0
                        and zone.page_max_ts[idx] < watermark):
                    rows = page.rows(_hit_rows)
                matched = True
                yield (keys, page.records, pos, end, None, rows)
            if done:
                stats.pages_skipped_zonemap += npages - idx - 1
                break
        # adaptivity feedback fires only when the source is drained; an
        # abandoned cursor reports nothing (no false "miss")
        if gate is not None:
            gate.report_pass_outcome(matched)

    def _emit_batch(self, checker: VisibilityChecker,
                    records: list[MVPBTRecord], pos: int, end: int,
                    leaf: MemLeaf | None, rows: list[SearchHit] | None,
                    want: int) -> list[SearchHit]:
        """Classify one contiguous segment slice up to its ``want``-th
        visible hit; returns those hits (more than ``want`` only when a
        REGULAR_SET record straddles the cut).

        Fast slices (``rows`` non-None) hold only committed-visible plain
        REGULAR records (zone purity + the watermark precondition), so
        batch visibility reduces to one anti-matter probe per ready-made
        row — or, with an empty anti-matter map, to one list slice of the
        page's cached rows: no per-record work at all.  The simulated
        clock is charged the per-record visibility cost of the records
        classified in one batched advance, and they count as processed.
        """
        if end <= pos:
            return []
        hits: list[SearchHit] = []
        if rows is not None:
            anti = checker._anti
            if not anti:
                end = min(end, pos + want)
                hits = rows[pos:end]
            else:
                logical = self.mode is ReferenceMode.LOGICAL
                probe = anti.get
                append = hits.append
                for idx in range(pos, end):
                    r = records[idx]
                    a = probe(r.vid if logical else r.rid_new)
                    if a is None or (r.ts, r.seq) >= a:
                        append(rows[idx])
                        if len(hits) == want:
                            end = idx + 1
                            break
            clock = checker._clock
            clock.advance(clock.cost.visibility_step * (end - pos))
            checker.records_processed += end - pos
            return hits
        check = checker.check
        visible = Visibility.VISIBLE
        garbage = Visibility.GARBAGE
        for idx in range(pos, end):
            record = records[idx]
            if record.rtype is RecordType.REGULAR_SET:
                key = record.key
                payload = record.payload
                for vid, rid, ts, _seq in \
                        checker.visible_set_entries(record):
                    hits.append(SearchHit(key, rid, vid, ts, payload))
                if len(hits) >= want:
                    break
                continue
            vis = check(record)
            if vis is visible:
                hits.append(SearchHit(record.key, record.rid_new,
                                      record.vid, record.ts,
                                      record.payload))
                if len(hits) == want:
                    break
            elif vis is garbage and leaf is not None:
                if not record.is_gc:
                    record.mark_gc()
                    self.gc_stats.flagged += 1
                leaf.has_garbage = True
        return hits

    # ----------------------------------------------------- partition buffer

    def memory_partition_bytes(self) -> int:
        return self._mem.bytes_used

    def evict_partition(self) -> PersistedPartition | None:
        from .eviction import evict_partition
        from .merge import select_merge_window
        partition = evict_partition(self)
        # tiered auto-merge: restore the partition bound by merging the
        # cheapest contiguous window (merge_fanout wide, or wider when one
        # step must absorb a larger overshoot) instead of merging ALL
        # partitions — bounds per-step write amplification
        while (self.max_partitions is not None
               and len(self._persisted) > self.max_partitions):
            n = len(self._persisted)
            need = n - self.max_partitions + 1
            k = max(need, min(self.merge_fanout, n))
            start, k = select_merge_window(self._persisted, k)
            before = n
            self.merge_partitions(k, start=start)
            if len(self._persisted) >= before:  # GC-emptied inputs only
                break
        return partition

    def merge_partitions(self, count: int | None = None, *,
                         start: int = 0) -> PersistedPartition | None:
        """Merge ``count`` adjacent persisted partitions starting at the
        ``start``-oldest (defaults: all) in an on-line system-transaction
        merge step (§4, §4.7)."""
        from .merge import merge_partitions
        return merge_partitions(self, count, start=start)

    def bulk_load(self, txn: Transaction,
                  entries: Sequence[tuple[Key, RecordID, int]],
                  payloads: Sequence[object] | None = None
                  ) -> PersistedPartition | None:
        """Build a persisted partition directly from (key, rid, vid)
        entries, bypassing ``P_N`` (the paper's bulk-load use case)."""
        from .merge import bulk_load
        return bulk_load(self, txn, entries, payloads)

    def rebuild_contents(self, records: "list[MVPBTRecord]") -> None:
        """Atomically replace the tree's whole record set (shard
        rebalancing, DESIGN.md §16.4)."""
        from .merge import rebuild_contents
        rebuild_contents(self, records)

    # ------------------------------------------------------------ inspection

    def iter_all_records(self) -> Iterator[MVPBTRecord]:
        """Every record of the tree — persisted partitions oldest-first,
        then ``P_N`` — with no visibility filtering or reconciliation.

        A reorganisation primitive (shard rebalancing classifies every
        record by owner); not a query path.
        """
        for part in self._persisted:
            yield from part.run.iter_all_sequential()
        yield from self._mem.iter_records()

    def has_pending_writes(self) -> bool:
        """Any committed-but-unflushed per-transaction WAL buffers?
        Reorganisations that rewrite the whole tree require none."""
        return any(self._wal_pending.values())

    @property
    def partition_count(self) -> int:
        """Persisted partitions plus the in-memory ``P_N``."""
        return len(self._persisted) + 1

    @property
    def persisted_partitions(self) -> list[PersistedPartition]:
        return list(self._persisted)

    @property
    def memory_partition(self) -> MemoryPartition:
        return self._mem

    def record_count(self) -> int:
        return (self._mem.record_count
                + sum(p.record_count for p in self._persisted))

    def describe(self) -> JSONDict:
        """Structural snapshot for diagnostics and experiment reporting."""
        partitions = [{
            "number": p.number,
            "records": p.record_count,
            "bytes": p.size_bytes,
            "pages": p.run.page_count,
            "min_ts": p.min_ts,
            "max_ts": p.max_ts,
            "bloom_bytes": p.bloom.size_bytes if p.bloom else 0,
            "prefix_bloom_bytes": (p.prefix_bloom.size_bytes
                                   if p.prefix_bloom else 0),
            "zone_map_bytes": (p.zone_map.size_bytes
                               if p.zone_map is not None else 0),
        } for p in self._persisted]
        return {
            "name": self.name,
            "mode": self.mode.value,
            "unique": self.unique,
            "memory_partition": {
                "number": self._mem.number,
                "records": self._mem.record_count,
                "bytes": self._mem.bytes_used,
                "leaves": self._mem.leaf_count,
            },
            "persisted_partitions": partitions,
            "evictions": self.stats.evictions,
            "merges": self.stats.merges,
            "read_path": {
                "pages_batch_decoded": self.stats.pages_batch_decoded,
                "pages_skipped_zonemap": self.stats.pages_skipped_zonemap,
                "pages_skipped_mints": self.stats.pages_skipped_mints,
                "zero_copy_bytes": self.stats.zero_copy_bytes,
            },
            "write_path": {
                "bytes_ingested": self.stats.bytes_ingested,
                "bytes_written": self.stats.bytes_written,
                "write_amplification": round(
                    self.stats.write_amplification, 4),
                "max_partitions": self.max_partitions,
                "merge_fanout": self.merge_fanout,
                "unique_fast_negatives": self.stats.unique_fast_negatives,
            },
            "gc": {
                "flagged": self.gc_stats.flagged,
                "purged_page_level": self.gc_stats.purged_page_level,
                "purged_eviction": self.gc_stats.purged_eviction,
                "chains_dropped": self.gc_stats.chains_dropped,
                "bytes_reclaimed": self.gc_stats.bytes_reclaimed,
            },
        }

    # ------------------------------------------------------------ durability

    def drain_wal_pending(self, txid: int) -> list[MVPBTRecord]:
        """Take (and forget) one transaction's unflushed ``P_N`` records."""
        return self._wal_pending.pop(txid, [])

    def logged_by(self, txid: int) -> bool:
        """Did the still-open transaction ``txid`` log a record here
        (whether or not an eviction has since made it partition-durable)?"""
        return txid in self._wal_pending

    def checkpoint_records(self) -> list[MVPBTRecord]:
        """The ``P_N`` records a checkpoint images: all but those still in
        a pending buffer, which their own commit will log."""
        owed = {record.seq for records in self._wal_pending.values()
                for record in records}
        return [record for record in self._mem.iter_records()
                if record.seq not in owed]

    def clear_wal_pending(self) -> None:
        """Empty all pending buffers — the records just became
        partition-durable through an eviction.  The keys stay: their
        transactions still owe a COMMIT marker (:meth:`logged_by`)."""
        for records in self._wal_pending.values():
            records.clear()

    @classmethod
    def recover(cls, name: str, file: PageFile, pool: BufferPool,
                partition_buffer: PartitionBuffer,
                manager: TransactionManager, *,
                index_state: IndexManifest | None = None,
                wal_records: list[MVPBTRecord] | None = None,
                durability: DurabilityController | None = None,
                **options: Any) -> "MVPBT":
        """Rebuild a tree from its durable state after a crash.

        ``index_state`` is the tree's
        :class:`~repro.durability.manifest.IndexManifest` (None when no
        manifest flip ever covered it); ``wal_records`` are its replayed
        WAL records in log order.  Persisted partitions are re-attached
        purely from manifest metadata — no leaf pages are read — and the
        WAL records are inserted into a fresh ``P_N``.  Structural options
        (uniqueness, reference mode, filters, merge policy) are passed
        exactly as to the constructor; they come from the host catalog,
        which this subsystem does not persist (DESIGN.md §11.5).
        """
        from ..durability.recovery import restore_partition
        tree = cls(name, file, pool, partition_buffer, manager, **options)
        if durability is not None:
            # attach before any eviction can fire (evicting a durable tree
            # must flip the manifest); floor 1 when the index never reached
            # a flip — its replayed records stay WAL-covered until the
            # first eviction advances the floor
            durability.register(
                tree,
                wal_floor=(index_state.wal_floor
                           if index_state is not None else 1))
        if index_state is not None:
            tree._persisted = [restore_partition(meta, file, pool)
                               for meta in index_state.partitions]
            tree._mem = MemoryPartition(index_state.mem_number, tree.mode,
                                        file.page_size)
            tree._next_seq = index_state.next_seq
        max_seq = tree._next_seq - 1
        for record in wal_records or []:
            tree._mem.insert(record)
            if record.seq > max_seq:
                max_seq = record.seq
        tree._next_seq = max_seq + 1
        # a replayed P_N may exceed the partition-buffer budget (crash
        # mid-eviction): recovery deliberately does NOT evict — it stays a
        # pure-read sequence — and the first mutation re-triggers it
        return tree

    # -------------------------------------------------------------- internal

    def _seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _add_logged(self, record: MVPBTRecord, txn: Writer) -> None:
        """Mutation entry: buffer a live transaction's record for its
        commit-time WAL append, then add.

        Buffering happens *first*: the insert below can trigger an eviction,
        which makes every current ``P_N`` record partition-durable and
        clears the pending buffers — including, correctly, this record.  A
        replayed record's timestamp is already decided and no commit will
        follow, so it is logged right away, also before the insert: its
        eviction may advance the WAL floor past this point.
        """
        if self._durability is not None:
            if isinstance(txn, Transaction):
                self._wal_pending.setdefault(record.ts, []).append(record)
            else:
                self._durability.log_records(self, [record])
        self._add(record)

    def _add(self, record: MVPBTRecord) -> None:
        clock = self.manager.clock
        clock.advance(20 * clock.cost.compare)
        leaf = self._mem.insert(record)
        if self.enable_gc and leaf.has_garbage:
            purge_leaf(self._mem, leaf, self.mode, self.gc_stats,
                       self.manager.active_snapshots(),
                       self.manager.commit_log, obs=self._obs)
        self.partition_buffer.maybe_evict()
        if self._durability is not None:
            self._durability.maybe_checkpoint(
                self.partition_buffer.capacity_bytes)

    def _checker(self, txn: Transaction) -> VisibilityChecker:
        """The per-operation checker: Algorithm 3, or the version-oblivious
        ablation's :class:`CandidateChecker` (the one place the tree reads
        ``index_only_visibility``)."""
        if self.index_only_visibility:
            actives = (self.manager.active_snapshots() if self.enable_gc
                       else None)
            return VisibilityChecker(txn.snapshot, self.manager.commit_log,
                                     self.mode,
                                     active_snapshots=actives,
                                     clock=self.manager.clock)
        return CandidateChecker(self.manager.commit_log, self.mode)

    def _classify(self, checker: VisibilityChecker, record: MVPBTRecord,
                  hits: list[SearchHit], leaf: MemLeaf | None) -> None:
        """Run one record through the visibility check; collect hits and do
        phase-1 GC flagging for in-memory leaves."""
        if record.rtype is RecordType.REGULAR_SET:
            for vid, rid, ts, _seq in checker.visible_set_entries(record):
                hits.append(SearchHit(record.key, rid, vid, ts,
                                      record.payload))
            return
        vis = checker.check(record)
        if vis is Visibility.VISIBLE:
            hits.append(SearchHit(record.key, record.rid_new, record.vid,
                                  record.ts, record.payload))
        elif vis is Visibility.GARBAGE and leaf is not None:
            if not record.is_gc:
                record.mark_gc()
                self.gc_stats.flagged += 1
            leaf.has_garbage = True

    def __repr__(self) -> str:
        return (f"MVPBT({self.name!r}, partitions={self.partition_count}, "
                f"records={self.record_count()})")
