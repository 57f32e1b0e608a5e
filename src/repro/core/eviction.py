"""MV-PBT partition eviction (paper §4.5, Algorithm 4) — streaming build.

Evicting the in-memory partition ``P_N`` is a single-pass pipeline over the
frozen partition's records (version chains are implicit in the record order
+ VIDs):

1. a *decision* scan computes the phase-3 garbage set
   (:func:`~repro.core.gc.gc_victim_seqs`) and re-links the kept records;
2. the build stream — partition scan, filtered by the decision set — flows
   through generator stages: §4.7 reconciliation
   (:func:`reconcile_stream`), the fused ``worker2`` accounting pass
   (:class:`PartitionMetaBuilder`: bloom / prefix-bloom digests computed
   from one key encoding, timestamp range) and the streaming
   :class:`~repro.index.runs.PersistedRun` packer, which dense-packs leaf
   pages at 100% fill and appends them extent by extent with sequential
   writes (``worker1``);
3. the new :class:`~repro.core.partition.PersistedPartition` is published
   and a fresh ``P_N`` started.

A durable tree's build ends its run with the *filter block*: the bloom,
prefix bloom and zone map encoded once, as trailing pages of the last
extent append, so the manifest only points at them (DESIGN.md §9.3).

No stage materialises the record set: peak transient memory is one leaf
page, one extent of packed pages, the current reconciliation key group and
the filter digest arrays (one pair of 32-bit ints per record for the bloom
filter, per distinct key prefix for the prefix bloom filter).  The same
:func:`build_partition` pipeline is shared by partition merge and bulk load
(:mod:`repro.core.merge`).

Partition numbering note (deviation from the paper, DESIGN.md §6): the paper
renumbers the evicted partition from ``N`` to ``N-1`` inside the shared tree
encoding; we keep numbers stable — an evicted partition retains its number
and the new ``P_N`` gets the next one.  The orderings are isomorphic.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from ..index.filters import (BLOOM_FPR, PREFIX_BLOOM_FPR, BloomFilter,
                             PartitionFilters, PrefixBloomFilter,
                             ZoneMapBuilder, digest, filter_block_pages)
from ..index.runs import PersistedRun
from ..obs.core import span_or_null
from ..storage.keycodec import encode_key, encode_key_with_prefix
from ..types import Key
from .gc import gc_victim_seqs
from .partition import MemoryPartition, PersistedPartition
from .records import MVPBTRecord, RecordType, record_size, record_ts_bounds

if TYPE_CHECKING:
    from ..obs.tracing import TraceSpan
    from .tree import MVPBT


def evict_partition(tree: "MVPBT") -> PersistedPartition | None:
    """Evict ``tree``'s current ``P_N``; returns the persisted partition
    (or None when GC leaves nothing to persist)."""
    mem = tree._mem
    if mem.record_count == 0:
        return None

    with span_or_null(tree._obs, "mvpbt.evict", index=tree.name,
                      partition=mem.number,
                      records_in=mem.record_count) as span:
        # the cooperative eviction scan over all leaves
        clock = tree.manager.clock
        cost = clock.cost
        clock.advance(cost.page_cpu * mem.leaf_count
                      + cost.compare * mem.record_count)
        tree.stats.bytes_ingested += mem.bytes_used

        stream: Iterable[MVPBTRecord] = mem.iter_records()
        if tree.enable_gc:
            drop = gc_victim_seqs(mem.iter_records(),
                                  tree.manager.active_snapshots(),
                                  tree.manager.commit_log, tree.mode,
                                  tree.gc_stats)
            if drop:
                stream = (r for r in mem.iter_records()
                          if r.seq not in drop)

        partition = build_partition(tree, stream, mem.number)

        # start the successor partition once the build drained the frozen
        # P_N (concurrent reads in a real system keep using the frozen
        # partition; single-threaded here)
        tree._mem = MemoryPartition(mem.number + 1, tree.mode,
                                    tree.file.page_size)
        tree.stats.evictions += 1
        if partition is not None:
            tree._persisted.append(partition)
        if tree._durability is not None:
            # the partition extents are fully written: flip the manifest,
            # then advance the WAL floor past the records it now covers
            tree._durability.on_eviction(tree)
        note_build(tree, span, "evict", partition)
    return partition


def note_build(tree: "MVPBT", span: "TraceSpan", op: str,
               partition: PersistedPartition | None) -> None:
    """Record what an eviction or merge wrote: the
    ``mvpbt.<op>.pages_written`` / ``bytes_written`` instruments (the
    tree's own ``bytes_written`` does not split by operation) and the
    span's output attributes."""
    obs = tree._obs
    if obs is None:
        return
    pages = nbytes = records = 0
    if partition is not None:
        pages, nbytes = partition.run.page_count, partition.size_bytes
        records = partition.record_count
        obs.registry.counter(f"mvpbt.{op}.pages_written").inc(pages)
        obs.registry.counter(f"mvpbt.{op}.bytes_written").inc(nbytes)
    span.set(records_out=records, pages=pages, bytes=nbytes)


def build_partition(tree: "MVPBT", records: Iterable[MVPBTRecord],
                    number: int) -> PersistedPartition | None:
    """Shared single-pass partition build (eviction, merge, bulk load).

    Consumes an already §4.3-ordered record stream once: optional §4.7
    reconciliation, fused filter/timestamp accounting, incremental page
    packing with extent-sized sequential appends — on a durable tree the
    last one carries the filter block.  Returns the publish-ready
    partition, or None when the stream turns out empty.
    """
    if tree.reconcile:
        records = reconcile_stream(records)
    meta = PartitionMetaBuilder(tree)
    zone = ZoneMapBuilder()

    def zone_page(keys: list[Key], page_records: list[MVPBTRecord],
                  used: int) -> None:
        # fused per-page zone accounting: runs at page-seal time while the
        # stream flows past, so the zone map costs no second pass
        first = page_records[0]
        lo, hi = record_ts_bounds(first)
        pure = first.rtype is RecordType.REGULAR and not first.flags
        for record in page_records[1:]:
            rlo, rhi = record_ts_bounds(record)
            if rlo < lo:
                lo = rlo
            if rhi > hi:
                hi = rhi
            if record.rtype is not RecordType.REGULAR or record.flags:
                pure = False
        zone.add_page(lo, hi, pure, used)

    filters: PartitionFilters | None = None

    def seal() -> list[bytes]:
        # the stream has ended, so the filters are complete
        nonlocal filters
        filters = PartitionFilters(*meta.build_filters(), zone.build())
        if tree._durability is None:
            return []
        return filter_block_pages(filters, tree.file.page_size)

    run = PersistedRun(
        tree.file, tree.pool, meta.observe(records),
        key_of=lambda r: r.key,
        size_of=lambda r: record_size(r, tree.mode),
        fill_factor=1.0,
        page_hook=zone_page,
        trailer=seal)
    if run.record_count == 0:
        return None

    clock = tree.manager.clock
    clock.advance(clock.cost.hash_op * run.record_count)
    tree.stats.bytes_written += run.size_bytes
    return PersistedPartition(
        number=number, run=run, min_ts=meta.min_ts, max_ts=meta.max_ts,
        filters=filters)


class PartitionMetaBuilder:
    """Fused ``worker2`` pass: partition filters and the timestamp range,
    computed while the record stream flows into the page packer.

    Bloom sizing needs the final record count, which a stream only reveals
    at its end; the builder therefore hashes each key **once** as it passes
    (one shared encoding serves the bloom filter and the prefix bloom
    filter), buffers the 32-bit digest pairs in flat ``array`` storage, and
    materialises the filters in :meth:`build_filters` — bit-identical to
    building them from a materialised record list.

    The prefix filter is a property of the key (DESIGN.md §9.3): keys of
    arity ``n >= 2`` — read off the first record — get one over their
    first ``n - 1`` columns.  The stream is key-sorted, so equal prefixes
    arrive together: a prefix digest is buffered only when the prefix
    changes, and the filter is sized by distinct prefixes, not records.
    """

    __slots__ = ("use_bloom", "prefix_columns", "count", "min_ts", "max_ts",
                 "_digests", "_prefix_digests")

    def __init__(self, tree: "MVPBT") -> None:
        self.use_bloom = tree.use_bloom
        #: width of the prefix filter; 0 = none (one-column keys, or no
        #: filters at all)
        self.prefix_columns = 0
        self.count = 0
        self.min_ts = 0
        self.max_ts = 0
        self._digests = array("I")          # 32-bit digest pairs, flat
        self._prefix_digests = array("I")   # one pair per distinct prefix

    def observe(self, records: Iterable[MVPBTRecord]
                ) -> Iterator[MVPBTRecord]:
        """Generator stage: account every record passing through."""
        stream = iter(records)
        first = next(stream, None)
        if first is None:
            return
        use_bloom = self.use_bloom
        if use_bloom:
            self.prefix_columns = max(0, len(first.key) - 1)
        ncols = self.prefix_columns
        digests = self._digests
        prefix_digests = self._prefix_digests
        last_prefix = None
        count = 0
        min_ts = None
        max_ts = None
        for record in chain((first,), stream):
            count += 1
            if record.rtype is RecordType.REGULAR_SET:
                for _vid, _rid, ts, _seq in record.set_entries:
                    if min_ts is None or ts < min_ts:
                        min_ts = ts
                    if max_ts is None or ts > max_ts:
                        max_ts = ts
            else:
                ts = record.ts
                if min_ts is None or ts < min_ts:
                    min_ts = ts
                if max_ts is None or ts > max_ts:
                    max_ts = ts
            if ncols:
                encoded, prefix = encode_key_with_prefix(record.key, ncols)
                digests.extend(digest(encoded))
                if prefix != last_prefix:
                    prefix_digests.extend(digest(prefix))
                    last_prefix = prefix
            elif use_bloom:
                digests.extend(digest(encode_key(record.key)))
            yield record
        self.count = count
        if min_ts is not None:
            self.min_ts = min_ts
            self.max_ts = max_ts

    def build_filters(self) -> tuple[BloomFilter | None,
                                     PrefixBloomFilter | None]:
        bloom: BloomFilter | None = None
        prefix_bloom: PrefixBloomFilter | None = None
        if self.use_bloom:
            bloom = BloomFilter(self.count, BLOOM_FPR)
            d = self._digests
            for i in range(0, len(d), 2):
                bloom.add_digest(d[i], d[i + 1])
        if self.prefix_columns:
            d = self._prefix_digests
            prefix_bloom = PrefixBloomFilter(
                len(d) // 2, PREFIX_BLOOM_FPR, self.prefix_columns)
            for i in range(0, len(d), 2):
                prefix_bloom.add_digest(d[i], d[i + 1])
        return bloom, prefix_bloom


def reconcile_stream(records: Iterable[MVPBTRecord]
                     ) -> Iterator[MVPBTRecord]:
    """§4.7 reconciliation as a generator stage: merge runs of same-key
    REGULAR records, buffering only the current key group.

    Only key groups consisting *entirely* of regular records are merged (a
    group containing replacement/anti/tombstone records keeps its per-record
    timestamp ordering, which the visibility check relies on).  Entries keep
    the group's newest-first order.
    """
    group: list[MVPBTRecord] = []
    all_regular = True
    for record in records:
        if group and record.key != group[0].key:
            if all_regular and len(group) > 1:
                yield _reconciled_set(group)
            else:
                yield from group
            group = []
            all_regular = True
        group.append(record)
        if record.rtype is not RecordType.REGULAR:
            all_regular = False
    if group:
        if all_regular and len(group) > 1:
            yield _reconciled_set(group)
        else:
            yield from group


def _reconciled_set(group: list[MVPBTRecord]) -> MVPBTRecord:
    entries = [(r.vid, r.rid_new, r.ts, r.seq) for r in group]
    return MVPBTRecord(
        key=group[0].key, ts=group[0].ts, seq=group[0].seq,
        rtype=RecordType.REGULAR_SET, vid=-1, set_entries=entries)


def reconcile_records(records: list[MVPBTRecord]) -> list[MVPBTRecord]:  # reprolint: disable=R12 -- materialised reference in tests/unit/test_write_path.py
    """Materialised wrapper around :func:`reconcile_stream` (tests and
    reference paths; the write pipeline streams)."""
    return list(reconcile_stream(records))
