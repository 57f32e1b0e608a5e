"""On-line partition reorganisation (paper §4: "partitions ... can be
reorganized and optimized on-line in system-transaction merge steps") and
bulk loads ("partitions can support additional functionalities, like bulk
loads").

**Merge** combines several adjacent persisted partitions into one as a
streaming pipeline: the inputs' already-sorted runs are k-way merged lazily
(``heapq.merge`` on the §4.3 sort key — sequential reads, no global
re-sort), filtered by the phase-3 garbage-collection decision set (dead
versions across the merged partitions finally disappear), optionally
reconciled, and fed straight into the shared single-pass partition builder
(:func:`~repro.core.eviction.build_partition`), which re-packs densely,
computes fresh filters and appends with sequential writes; the input
partitions' pages are freed.  This is the LSM-compaction analogue — but
*optional* and workload-driven rather than structural, which is the paper's
point about lower write amplification.

The auto-merge policy is **tiered** (:func:`select_merge_window`): instead
of the old merge-ALL-partitions step, only the cheapest contiguous window
of ``merge_fanout`` partitions is reorganised per trigger, so each merge
rewrites the fewest bytes that restore the partition bound (universal-
compaction-style write-amplification control).

**Bulk load** builds a persisted partition directly from a sorted entry
stream through the same builder, bypassing ``P_N`` entirely — one
sequential write pass, no partition-buffer pressure.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..errors import IndexError_
from ..obs.core import span_or_null
from ..storage.recordid import RecordID
from ..txn.transaction import Transaction
from .eviction import build_partition, note_build
from .gc import gc_victim_seqs
from .partition import MemoryPartition, PersistedPartition
from .records import MVPBTRecord, RecordType, record_size
from ..types import Key

if TYPE_CHECKING:
    from .tree import MVPBT


def select_merge_window(partitions: Sequence[PersistedPartition],
                        fanout: int) -> tuple[int, int]:
    """Tiered input selection: the contiguous window of ``fanout``
    partitions with the smallest total byte size.

    Contiguity (in partition age) is a correctness requirement — a chain's
    records span a contiguous partition range, so chain-local GC decisions
    stay complete — and the minimal-bytes window is the cheapest
    reorganisation that reduces the partition count by ``fanout - 1``:
    size-similar young tiers are picked naturally, a large cold partition
    is never rewritten just because it is oldest.  Returns
    ``(start, count)`` into ``partitions`` (oldest first).
    """
    n = len(partitions)
    k = max(2, min(fanout, n))
    if k >= n:
        return 0, n
    sizes = [p.size_bytes for p in partitions]
    window = sum(sizes[:k])
    best, best_start = window, 0
    for i in range(1, n - k + 1):
        window += sizes[i + k - 1] - sizes[i - 1]
        if window < best:
            best, best_start = window, i
    return best_start, k


def _merge_pinned_runs(runs: list[Sequence[MVPBTRecord]]
                       ) -> Iterator[MVPBTRecord]:
    """Galloping k-way merge of pinned, §4.3-sorted record runs.

    Time-ordered partitions overlap little in practice, so instead of one
    heap operation (plus key computation) per record the merge pops the run
    with the smallest head key, locates how far that run stays below every
    other run's head — ``bisect`` with a key function, O(log seglen)
    ``sort_key`` calls — and yields the whole segment.  Per *segment* cost
    is O(log seglen + log k); heavily interleaved runs degrade gracefully
    to the per-record behaviour.  Sort keys are globally unique (the
    tree-wide ``seq`` breaks every tie), so segment boundaries reproduce
    the total §4.3 order exactly.

    Takes ownership of ``runs``: each run's pin list is released the moment
    it is drained, so the live input set shrinks while the output partition
    grows — peak memory stays near one partition's worth of references
    instead of input + output.
    """
    key = MVPBTRecord.sort_key
    heads = [(key(records[0]), idx, 0)
             for idx, records in enumerate(runs) if records]
    heapq.heapify(heads)
    while heads:
        _k, idx, pos = heapq.heappop(heads)
        records = runs[idx]
        if not heads:
            runs[idx] = ()
            yield from records[pos:]
            continue
        hi = bisect_right(records, heads[0][0], pos, len(records), key=key)
        if hi == len(records):
            runs[idx] = ()  # drained — drop the pin before the long tail
            yield from records[pos:]
            continue
        yield from records[pos:hi]
        heapq.heappush(heads, (key(records[hi]), idx, hi))


def merge_partitions(tree: "MVPBT", count: int | None = None, *,
                     start: int = 0) -> PersistedPartition | None:
    """Merge ``count`` adjacent persisted partitions starting at ``start``
    (oldest-first indexing; default: all).

    Returns the merged partition, or None when fewer than two partitions
    are selected or GC leaves nothing to persist.
    """
    persisted = tree._persisted
    if start < 0 or start >= len(persisted):
        return None
    if count is None:
        count = len(persisted) - start
    count = min(count, len(persisted) - start)
    if count < 2:
        return None
    inputs = persisted[start:start + count]

    with span_or_null(tree._obs, "mvpbt.merge", index=tree.name,
                      inputs=count, start=start) as span:
        clock = tree.manager.clock
        if clock is not None:
            total = sum(p.record_count for p in inputs)
            clock.advance(tree.manager.cost.compare * total)

        # Pass 1 (GC decision): read every input run once — the single
        # charged sequential read — pinning each run's records in a per-run
        # ref list (the GC chain grouping already holds one reference per
        # record, so pinning adds no asymptotic memory), then compute the
        # cross-partition victim set; kept records are re-linked in place.
        # Pass 2 (build) k-way merges the pinned survivors: one device read
        # total.  With GC off, nothing needs a decision pass and the build
        # lazily consumes the charged read directly through heapq.merge in
        # bounded memory.
        if tree.enable_gc:
            pinned: list[Sequence[MVPBTRecord]] = [
                list(p.run.iter_all_sequential()) for p in inputs]
            drop = gc_victim_seqs(chain.from_iterable(pinned),
                                  tree.manager.active_snapshots(),
                                  tree.manager.commit_log, tree.mode,
                                  tree.gc_stats)
            if drop:
                for i, recs in enumerate(pinned):  # old pin freed per run
                    pinned[i] = [r for r in recs if r.seq not in drop]
            merged_stream: Iterable[MVPBTRecord] = _merge_pinned_runs(pinned)
            del pinned  # the galloping merge owns (and frees) the pins
        else:
            # global §4.3 order: each run is already sorted on sort_key(),
            # so a lazy k-way merge restores the processing order without
            # materialising or re-sorting the combined record set
            merged_stream = heapq.merge(
                *(p.run.iter_all_sequential() for p in inputs),
                key=MVPBTRecord.sort_key)

        merged = build_partition(tree, merged_stream,
                                 inputs[-1].number)  # newest merged slot

        # install-before-retire: publish the merged partition (and flip the
        # manifest) *before* freeing the input extents, so a crash between
        # the two steps leaves either the complete old or the complete new
        # set
        del persisted[start:start + count]
        if merged is not None:
            persisted.insert(start, merged)
        tree.stats.merges += 1
        if tree._durability is not None:
            tree._durability.on_reorg(tree)
        for partition in inputs:
            partition.run.free()
        note_build(tree, span, "merge", merged)
    return merged


def rebuild_contents(tree: "MVPBT", records: list[MVPBTRecord]) -> None:
    """Replace the tree's entire record set in one atomic eviction-style
    step (the shard-rebalancing primitive, DESIGN.md §16.4).

    ``records`` — any mix of kept and newly adopted records — is sorted on
    the §4.3 key and fed through the shared single-pass builder into ONE
    new persisted partition, bypassing ``P_N``.  The flip is
    eviction-style (WAL floor to ``end_lsn`` + manifest install + WAL
    truncate): after it, the manifest alone describes the new layout and
    no WAL record of the old layout replays.  Old partitions are freed
    only after the flip (install-before-retire), so a crash at any I/O
    recovers either the complete old or the complete new tree — never a
    mix, and never a duplicate.
    """
    if tree.has_pending_writes():
        raise IndexError_(
            f"{tree.name}: rebuild requires no pending transactional "
            f"writes (quiesce writers first)")
    records = sorted(records, key=MVPBTRecord.sort_key)
    clock = tree.manager.clock
    if clock is not None:
        clock.advance(tree.manager.cost.compare * len(records))

    obs = tree._obs
    with span_or_null(obs, "mvpbt.rebuild", index=tree.name,
                      records=len(records)) as span:
        old = list(tree._persisted)
        partition = build_partition(tree, records, tree._mem.number)
        tree._persisted[:] = [partition] if partition is not None else []
        tree._mem = MemoryPartition(tree._mem.number + 1, tree.mode,
                                    tree.file.page_size)
        max_seq = max((r.seq for r in records), default=-1)
        if max_seq >= tree._next_seq:
            tree._next_seq = max_seq + 1
        if tree._durability is not None:
            tree._durability.on_eviction(tree)
        for part in old:
            part.run.free()
        if obs is not None:
            obs.registry.counter("mvpbt.rebuild.count").inc()
            span.set(records_out=(partition.record_count
                                  if partition is not None else 0))


def bulk_load(tree: "MVPBT", txn: Transaction,
              entries: Sequence[tuple[Key, RecordID, int]],
              payloads: Sequence[object] | None = None
              ) -> PersistedPartition | None:
    """Build one persisted partition directly from ``(key, rid, vid)``
    entries — the initial-load fast path.

    Entries need not be pre-sorted.  The loaded partition takes the current
    ``P_N``'s number (``P_N`` moves up by one), so it is *older* than every
    record subsequently written — matching a load that logically precedes
    the ongoing workload.  Runs through the same single-pass builder as
    eviction and merge (reconciliation, fused filters, streaming pack).
    """
    txn.require_active()
    if tree._mem.record_count > 0:
        raise IndexError_(
            f"{tree.name}: bulk load requires an empty memory partition "
            f"({tree._mem.record_count} records present)")
    if not entries:
        return None

    with span_or_null(tree._obs, "mvpbt.bulk_load", index=tree.name,
                      entries=len(entries)) as span:
        records = []
        for idx, (key, rid, vid) in enumerate(entries):
            payload = payloads[idx] if payloads is not None else None
            records.append(MVPBTRecord(tuple(key), txn.id, tree._seq(),
                                       RecordType.REGULAR, vid, rid_new=rid,
                                       payload=payload))
        records.sort(key=MVPBTRecord.sort_key)

        clock = tree.manager.clock
        if clock is not None:
            clock.advance(tree.manager.cost.compare * len(records))
        tree.stats.bytes_ingested += sum(
            record_size(r, tree.mode) for r in records)

        partition = build_partition(tree, records, tree._mem.number)
        assert partition is not None  # entries non-empty and GC never runs
        tree._persisted.append(partition)
        tree._mem.number += 1
        tree.stats.inserts += len(entries)
        tree.stats.bulk_loads += 1
        if tree._durability is not None:
            tree._durability.on_reorg(tree)
        span.set(pages=partition.run.page_count, bytes=partition.size_bytes)
    return partition
