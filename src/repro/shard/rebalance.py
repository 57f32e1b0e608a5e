"""Shard rebalancing: move keyspace slices with their FULL version
history (DESIGN.md §16.4).

Given a new partitioner, the rebalance moves every version chain whose
shard key changes owner, then rewrites the affected MV-PBT trees through
the eviction-style :func:`~repro.core.merge.rebuild_contents` primitive.
Historical versions survive: a snapshot held across the rebalance reads
the same rows before, during and after.

Chain adoption
    A moved chain, as its source store lists it (``chains``), is
    re-materialised by the destination store (``adopt_chain``) with a
    fresh vid (adopted chains must not collide with native ones in GC's
    vid-keyed grouping) and fresh rids, but *unchanged* timestamps and
    tombstone flags: only the physical address is new, the logical
    history is identical.

Record classification
    An index record belongs to the chain its recordID references, so
    classification is uniform for routing and secondary indexes: a record
    moves iff its matter rid (or, for pure anti-matter, its ``rid_old``)
    was adopted.  Moved records get remapped vids/rids and fresh
    destination seqs, assigned in deterministic sorted order.
    REGULAR_SET records whose reconciled entries straddle the move are
    exploded back into per-entry REGULAR records (each entry keeps its
    original timestamp + seq, so visibility is unchanged).

Crash safety (the three-step protocol)
    1. **Copy in** — destination shards adopt chains and rebuild their
       trees with old + incoming records.  The layout is still old, so
       the copies are residue the ownership filter hides: the router's
       ``index_residue`` flag goes up here.
    2. **Flip** — the coordinator installs the new partitioner and logs
       it (one durable NOTE append): the atomic point of the rebalance.
    3. **Copy out** — source shards rebuild their trees without the
       moved-away records, now residue under the new layout.  After the
       last rebuild the flag is back where it was: no tree holds a
       record this rebalance moved.  The source *stores* keep the moved
       chains, which only a sequential scan meets.

    A crash at any I/O leaves every tree either fully-old or fully-new
    (per-tree manifest flip) and the layout decides which copies are
    authoritative — reads are correct in every window, no version is ever
    visible twice or lost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.records import MVPBTRecord, RecordType
from ..errors import IndexError_
from ..storage.keycodec import encode_key
from ..storage.recordid import RecordID
from ..table.base import Chain
from ..types import JSONDict, Key

if TYPE_CHECKING:
    from .partitioner import HashPartitioner
    from .router import ShardedDatabase


class _Move:
    """All state of one rebalance pass."""

    __slots__ = ("router", "new", "rid_map", "vid_map", "placeholders",
                 "placeholder_map", "versions_moved", "records_moved",
                 "chains_moved")

    def __init__(self, router: "ShardedDatabase",
                 new: "HashPartitioner") -> None:
        self.router = router
        self.new = new
        #: (src_shard, table, old_rid) -> (dst_shard, new_rid), adopted
        #: versions ONLY — record classification keys off this map
        self.rid_map: dict[tuple[int, str, RecordID],
                           tuple[int, RecordID]] = {}
        #: (src_shard, table, old_vid) -> new_vid on the destination
        self.vid_map: dict[tuple[int, str, int], int] = {}
        #: (dst_shard, table) -> (page_no, next_slot) for placeholder rids
        self.placeholders: dict[tuple[int, str], tuple[int, int]] = {}
        #: (src_shard, dst_shard, table, old_rid) -> placeholder rid;
        #: kept OUT of rid_map so dangling references never reclassify
        #: later records as moved
        self.placeholder_map: dict[tuple[int, int, str, RecordID],
                                   RecordID] = {}
        self.versions_moved = 0
        self.records_moved = 0
        self.chains_moved = 0


def not_quiescent(router: "ShardedDatabase") -> str | None:
    """Why the router cannot rebalance now, or None when it can: no
    in-flight writer and no pending transactional writes on any shard
    (held read-only snapshots are fine)."""
    for shard, db in enumerate(router.shards):
        writers = [t.id for t in db.txn.active_transactions
                   if t.writes > 0]
        if writers:
            return (f"rebalance requires no in-flight writers (shard "
                    f"{shard} has active write transactions {writers}; "
                    f"held read-only snapshots are fine)")
        for info in db.catalog.indexes:
            if info.is_mvpbt and info.mvpbt.has_pending_writes():
                return (f"rebalance requires no pending transactional "
                        f"writes ({info.name!r} has some; quiesce writers "
                        f"first)")
    return None


def rebalance(router: "ShardedDatabase",
              new_partitioner: "HashPartitioner") -> JSONDict:
    """Install ``new_partitioner``, moving chains and index records."""
    if new_partitioner.shards != len(router.shards):
        raise IndexError_(
            f"new layout maps {new_partitioner.shards} shards, router has "
            f"{len(router.shards)}")
    reason = not_quiescent(router)
    if reason is not None:
        raise IndexError_(reason)

    move = _Move(router, new_partitioner)
    # step 0 (in-memory): adopt every moving chain on its destination
    # store.  Base tables are host-durable in this model (DESIGN.md
    # §11.5), so adoption is complete the moment it happens.
    for table in sorted(router._tables):
        _adopt_chains(move, table)

    # classify every tree's records (by referenced chain) before touching
    # any tree, then run the three-step protocol
    plans: list[tuple[int, str, list[MVPBTRecord], list[MVPBTRecord]]] = []
    incoming: dict[tuple[int, str], list[tuple[int, MVPBTRecord]]] = {}
    for s, db in enumerate(router.shards):
        for info in db.catalog.indexes:
            keep, moved = _classify_records(move, s, info.name,
                                            info.table)
            for dst, record in moved:
                incoming.setdefault((dst, info.name), []).append(
                    (s, record))
            plans.append((s, info.name, keep, moved_records(moved)))

    # step 1: copy in — gaining shards rebuild with ALL their current
    # records (a shard may gain and lose at once; nothing leaves yet)
    # plus the adopted ones, re-sequenced deterministically.  From here
    # to the last copy-out an index tree may hold residue; a rebalance
    # that never gets there leaves the flag raised
    residue_before = router.index_residue
    router.index_residue = True
    for (dst, index_name), arrivals in sorted(
            incoming.items(),
            key=lambda item: (item[0][0], item[0][1])):
        tree = router.shards[dst].catalog.index(index_name).mvpbt
        arrivals.sort(key=lambda item: (encode_key(item[1].key),
                                        item[1].ts, item[1].seq, item[0]))
        fresh = [record for _src, record in arrivals]
        for record in fresh:
            record.seq = tree._seq()
        current = list(tree.iter_all_records())
        tree.rebuild_contents(current + fresh)
        move.records_moved += len(fresh)

    # step 2: the flip — one durable append decides the rebalance
    router.coordinator.partitioner = new_partitioner
    router.coordinator.log_layout()

    # step 3: copy out — losing shards drop their moved-away records
    for s, index_name, keep, moved in plans:
        if not moved:
            continue
        tree = router.shards[s].catalog.index(index_name).mvpbt
        extra = incoming.get((s, index_name))
        kept_now = keep + ([record for _src, record in extra]
                           if extra else [])
        tree.rebuild_contents(kept_now)
    router.index_residue = residue_before

    summary: JSONDict = {
        "chains_moved": move.chains_moved,
        "versions_moved": move.versions_moved,
        "records_moved": move.records_moved,
    }
    if router.obs is not None:
        router._m_rebalances.inc()
        router._m_moved_records.inc(move.records_moved)
        router._m_moved_versions.inc(move.versions_moved)
        router.obs.tracer.emit("shard.rebalance", **summary)
    return summary


def moved_records(moved: list[tuple[int, MVPBTRecord]]
                  ) -> list[MVPBTRecord]:
    return [record for _dst, record in moved]


# --------------------------------------------------------------- base tables


def _chain_shard_key(chain: Chain, positions: tuple[int, ...]) -> Key | None:
    """The chain's shard-key value (constant across its versions — the
    router turns key-changing updates into delete + insert)."""
    for _rid, version in chain:
        if not version.is_tombstone:
            return tuple(version.data[p] for p in positions)
    return None


def _adopt_chains(move: _Move, table: str) -> None:
    """Copy every chain whose shard key changes owner onto its new shard."""
    router = move.router
    positions = router.shard_key_positions(table)
    for s, db in enumerate(router.shards):
        for chain in db.catalog.table(table).store.chains():
            shard_key = _chain_shard_key(chain, positions)
            if shard_key is None:
                continue  # pure-tombstone chain: nothing to place
            if router.partitioner.shard_of(shard_key) != s:
                continue  # residue of an older rebalance: not ours to move
            dst = move.new.shard_of(shard_key)
            if dst == s:
                continue
            _adopt_one_chain(move, s, dst, table, chain)


def _adopt_one_chain(move: _Move, src: int, dst: int, table: str,
                     chain: Chain) -> None:
    store = move.router.shards[dst].catalog.table(table).store
    new_vid, adopted = store.adopt_chain(chain)
    move.vid_map[(src, table, chain[0][1].vid)] = new_vid
    move.chains_moved += 1
    for old_rid, new_rid in adopted.items():
        move.rid_map[(src, table, old_rid)] = (dst, new_rid)
    move.versions_moved += len(adopted)


# -------------------------------------------------------------- index records


def _classify_records(move: _Move, shard: int, index_name: str,
                      table: str) -> tuple[
                          list[MVPBTRecord],
                          list[tuple[int, MVPBTRecord]]]:
    """Split one tree's records into (kept, moved-with-destination).

    A record follows its referenced chain; the remapped copy is a *fresh*
    :class:`MVPBTRecord` (the source tree keeps its objects untouched
    until step 3).
    """
    tree = move.router.shards[shard].catalog.index(index_name).mvpbt
    keep: list[MVPBTRecord] = []
    moved: list[tuple[int, MVPBTRecord]] = []
    for record in tree.iter_all_records():
        if record.rtype is RecordType.REGULAR_SET:
            _classify_set(move, shard, table, record, keep, moved)
            continue
        anchor = (record.rid_new if record.rid_new is not None
                  else record.rid_old)
        target = (move.rid_map.get((shard, table, anchor))
                  if anchor is not None else None)
        if target is None:
            keep.append(record)
            continue
        dst = target[0]
        moved.append((dst, MVPBTRecord(
            key=record.key, ts=record.ts, seq=record.seq,
            rtype=record.rtype,
            vid=move.vid_map[(shard, table, record.vid)],
            rid_new=_remap_rid(move, shard, dst, table, record.rid_new),
            rid_old=_remap_rid(move, shard, dst, table, record.rid_old),
            payload=record.payload, flags=record.flags)))
    return keep, moved


def _classify_set(move: _Move, shard: int, table: str,
                  record: MVPBTRecord, keep: list[MVPBTRecord],
                  moved: list[tuple[int, MVPBTRecord]]) -> None:
    """REGULAR_SET: if any reconciled entry's chain moves, explode the set
    back into per-entry REGULAR records (each keeps its own ts + seq, so
    every snapshot resolves exactly as before); otherwise keep intact."""
    if not any((shard, table, rid) in move.rid_map
               for _vid, rid, _ts, _seq in record.set_entries):
        keep.append(record)
        return
    for vid, rid, ts, seq in record.set_entries:
        target = move.rid_map.get((shard, table, rid))
        payload = record.payload if ts == record.ts else None
        if target is None:
            keep.append(MVPBTRecord(
                key=record.key, ts=ts, seq=seq, rtype=RecordType.REGULAR,
                vid=vid, rid_new=rid, payload=payload,
                flags=record.flags))
        else:
            dst, new_rid = target
            moved.append((dst, MVPBTRecord(
                key=record.key, ts=ts, seq=seq, rtype=RecordType.REGULAR,
                vid=move.vid_map[(shard, table, vid)], rid_new=new_rid,
                payload=payload, flags=record.flags)))


def _remap_rid(move: _Move, src: int, dst: int, table: str,
               rid: RecordID | None) -> RecordID | None:
    """Destination rid for a moved record's reference.

    The common case hits the adoption map.  A reference to a version that
    no longer physically exists (vacuumed predecessor) gets a
    *placeholder* rid — a slot on a page reserved on the destination
    table file that will never hold data, so the dangling anti-matter
    reference stays unresolvable there exactly as it was at the source,
    and never aliases a real version.
    """
    if rid is None:
        return None
    target = move.rid_map.get((src, table, rid))
    if target is not None:
        if target[0] != dst:
            raise IndexError_(
                f"index record references chains moving to different "
                f"shards ({target[0]} and {dst})")
        return target[1]
    memo_key = (src, dst, table, rid)
    memoized = move.placeholder_map.get(memo_key)
    if memoized is not None:
        return memoized
    slot_state = move.placeholders.get((dst, table))
    if slot_state is None:
        file = move.router.shards[dst].catalog.table(table).file
        slot_state = (file.allocate_page(), 0)
    page_no, slot = slot_state
    move.placeholders[(dst, table)] = (page_no, slot + 1)
    placeholder = RecordID(page_no, slot)
    # memoize: the same dangling source rid always maps to the same
    # placeholder, keeping anti-matter matching consistent
    move.placeholder_map[memo_key] = placeholder
    return placeholder
