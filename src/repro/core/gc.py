"""MV-PBT partition garbage collection (paper §4.6).

Three cooperative phases:

* **Phase 1** piggybacks on regular index scans: the
  :class:`~repro.core.visibility.VisibilityChecker`, given the active
  snapshots, classifies records no snapshot (active or future) can ever see
  as GARBAGE; the tree flags them (``FLAG_GC``) and sets the
  ``has_garbage`` bit in the leaf's page header.  The classification is
  interval-based, so *transient* versions — created and superseded entirely
  during a long-running analytical query — are collected while the query is
  still active, the paper's headline HTAP case.
* **Phase 2** runs when an update/insert lands on a leaf with
  ``has_garbage``: the flagged chains are reduced to their keep set and the
  victims' space is reclaimed immediately.  (The paper performs this at
  page granularity for latching reasons; the simulation is single-threaded,
  so it reduces whole in-memory chains — same records collected, simpler
  invariants.  Documented in DESIGN.md §6.)
* **Phase 3** runs during partition eviction: every chain is reduced once
  more with the whole partition in hand, then the survivors are dense-packed.

Chain reduction: per VID, keep the newest committed record (what future
snapshots see) plus, per active snapshot, the record its visibility window
lands on; re-link every surviving record whose anti-matter names a victim
to that victim's own target, so each dropped record's invalidation reach
stays at the key it acted on; chains terminated by a tombstone whose
origin lies in this partition vanish entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..txn.snapshot import Snapshot
from ..txn.status import CommitLog
from .partition import MemLeaf, MemoryPartition
from ..storage.recordid import RecordID
from .records import MVPBTRecord, RecordType, ReferenceMode, record_size

if TYPE_CHECKING:
    from ..obs.core import Observability


@dataclass
class GCStats:
    """Counters of the partition GC."""

    flagged: int = 0            #: phase-1 flaggings
    purged_page_level: int = 0  #: phase-2 removals
    purged_eviction: int = 0    #: phase-3 removals
    chains_dropped: int = 0     #: whole chains removed
    bytes_reclaimed: int = 0


def reduce_chain(chain: list[MVPBTRecord],
                 active_snapshots: list[Snapshot],
                 commit_log: CommitLog,
                 mode: ReferenceMode) -> list[MVPBTRecord]:
    """Compute the victims of one chain (records of one VID, any order).

    Returns the records that no active or future snapshot needs.  The
    survivors are re-linked in place (physical mode) so invalidation still
    reaches both dropped records' predecessors in older partitions and
    other kept records, at every key the chain visited.
    """
    if len(chain) == 1:
        # dominant case on eviction/merge: a single-record chain never has
        # older versions to shed — it is a victim only when aborted
        return chain if commit_log.is_aborted(chain[0].ts) else []
    chain = sorted(chain, key=lambda r: (-r.ts, -r.seq))  # newest first
    victims: list[MVPBTRecord] = []
    committed: list[MVPBTRecord] = []
    antis: list[MVPBTRecord] = []
    for record in chain:
        if commit_log.is_aborted(record.ts):
            victims.append(record)
        elif record.rtype is RecordType.ANTI:
            antis.append(record)
        elif commit_log.is_committed(record.ts):
            committed.append(record)
        # in-progress records are always kept
    if not committed:
        return victims

    # keep set: future snapshots see committed[0]; each active snapshot
    # keeps the record its visibility window lands on
    keep_idx: set[int] = {0}
    for snap in active_snapshots:
        for idx, record in enumerate(committed):
            if snap.sees_ts(record.ts, commit_log):
                keep_idx.add(idx)
                break

    kept = [committed[i] for i in sorted(keep_idx)]
    chain_victims = [committed[i] for i in range(len(committed))
                     if i not in keep_idx]
    chain_rooted_here = any(r.rtype is RecordType.REGULAR for r in committed)

    # whole-chain drop: only a tombstone left and the chain originates here
    if (len(kept) == 1 and kept[0].rtype is RecordType.TOMBSTONE
            and chain_rooted_here):
        victims.extend(kept)
        victims.extend(chain_victims)
        victims.extend(antis)
        return victims

    if not chain_victims:
        return victims

    victims.extend(chain_victims)
    # re-link, oldest first: a survivor whose anti-matter names a victim
    # takes over the victim's (already re-linked) target — the nearest
    # survivor, an older partition's record, or None for a run rooted here.
    # An ANTI is re-linked too: a point lookup sees only its own key's
    # anti-matter.  A rid names the newest matter below it (an in-place
    # store reuses rids)
    if mode is ReferenceMode.PHYSICAL:
        dead = {v.seq for v in victims}
        reach: dict[RecordID, RecordID | None] = {}
        for record in reversed(chain):
            old = reach.get(record.rid_old, record.rid_old)
            if record.seq in dead:
                if record.rid_new is not None:
                    reach[record.rid_new] = old
                continue
            if record.has_antimatter and old is not None:
                record.rid_old = old
            reach.pop(record.rid_new, None)
    return victims


def purge_leaf(partition: MemoryPartition, leaf: MemLeaf,
               mode: ReferenceMode, stats: GCStats,
               active_snapshots: list[Snapshot],
               commit_log: CommitLog,
               obs: "Observability | None" = None) -> int:
    """Phase 2: reduce the chains flagged on this leaf; reclaim their space.

    Returns the number of records removed.
    """
    if not leaf.has_garbage:
        return 0
    flagged_vids = {record.vid for record in leaf.records if record.is_gc}
    removed = 0
    for vid in flagged_vids:
        chain = partition.chain(vid)
        victims = reduce_chain(chain, active_snapshots, commit_log, mode)
        dropped_all = victims and len(victims) == len(chain)
        for victim in victims:
            freed = partition.remove_record(victim)
            if freed:
                removed += 1
                stats.purged_page_level += 1
                stats.bytes_reclaimed += freed
        if dropped_all:
            stats.chains_dropped += 1
    leaf.has_garbage = any(r.is_gc for r in leaf.records)
    if removed and obs is not None:
        obs.tracer.emit("mvpbt.gc.purge_leaf", removed=removed)
    return removed


def gc_victim_seqs(records: "Iterable[MVPBTRecord]",
                   active_snapshots: list[Snapshot],
                   commit_log: CommitLog, mode: ReferenceMode,
                   stats: GCStats) -> set[int]:
    """Phase-3 *decision* pass: the ``seq`` set of eviction/merge victims.

    Consumes any record iterable (a partition scan, a sequential run read) —
    order is irrelevant, chains are grouped by VID and reduced internally.
    Kept records are re-linked in place exactly as :func:`reduce_chain`
    prescribes, so running the decision pass first and filtering the build
    stream by the returned set is equivalent to the old materialise-then-
    filter shape, without ever holding the full record list.

    ``REGULAR_SET`` records are never chain-reduced: reconciled bundles all
    share the pseudo-VID ``-1``, and grouping them into one "chain" would
    cross-link unrelated keys' bundles and drop every bundle but the newest
    (a data-loss bug the pre-streaming merge path had).  Their members are
    committed REGULAR versions whose chains ended before reconciliation, so
    there is nothing chain reduction could reclaim anyway.

    Most chains hold exactly one record (a key inserted and never updated
    in this partition's lifetime), so the grouping stores the bare record
    and promotes to a list only on a second occurrence — the per-chain list
    allocations of the naive ``setdefault(vid, []).append`` shape dominated
    the whole write path's peak memory.
    """
    by_vid: dict[int, MVPBTRecord | list[MVPBTRecord]] = {}
    get = by_vid.get
    for record in records:
        if record.rtype is RecordType.REGULAR_SET:
            continue
        vid = record.vid
        prev = get(vid)
        if prev is None:
            by_vid[vid] = record
        elif isinstance(prev, list):
            prev.append(record)
        else:
            by_vid[vid] = [prev, record]

    drop: set[int] = set()
    is_aborted = commit_log.is_aborted
    for entry in by_vid.values():
        if not isinstance(entry, list):
            # singleton chain: nothing to shed — victim only when aborted
            if is_aborted(entry.ts):
                drop.add(entry.seq)
                stats.chains_dropped += 1
                stats.purged_eviction += 1
                stats.bytes_reclaimed += record_size(entry, mode)
            continue
        victims = reduce_chain(entry, active_snapshots, commit_log, mode)
        if victims and len(victims) == len(entry):
            stats.chains_dropped += 1
        for victim in victims:
            drop.add(victim.seq)
            stats.purged_eviction += 1
            stats.bytes_reclaimed += record_size(victim, mode)
    return drop


def collect_for_eviction(records: list[MVPBTRecord],  # reprolint: disable=R12 -- materialised reference in tests/unit/test_write_path.py
                         active_snapshots: list[Snapshot],
                         commit_log: CommitLog, mode: ReferenceMode,
                         stats: GCStats) -> list[MVPBTRecord]:
    """Phase 3: final GC over a whole partition about to be evicted.

    Materialised wrapper around :func:`gc_victim_seqs` (the streaming write
    path filters by the decision set instead).  ``records`` arrive in
    partition order; the returned (possibly re-linked) survivors preserve
    that order.
    """
    drop = gc_victim_seqs(records, active_snapshots, commit_log, mode, stats)
    return [r for r in records if r.seq not in drop]
