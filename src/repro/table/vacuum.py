"""Tuple-level garbage collection (vacuum) for the base tables (paper §3.4).

Versions become *dead* once no active or future snapshot can see them: they
were superseded (or deleted) by a transaction whose id lies below the
transaction manager's cutoff, or their creator aborted.  Vacuum reclaims
their space; it returns the removed recordIDs so the engine can purge the
corresponding version-oblivious index entries (index-level GC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import TupleNotFoundError
from ..storage.recordid import RecordID
from ..txn.manager import TransactionManager
from .base import TupleVersion

if TYPE_CHECKING:
    from .delta import DeltaTable
    from .heap import HeapTable
    from .sias import SIASTable


@dataclass
class VacuumResult:
    """Outcome of one vacuum pass."""

    versions_removed: int = 0
    pages_freed: int = 0
    removed_rids: list[RecordID] = field(default_factory=list)
    #: vids whose whole chain is gone (deleted tuples below the cutoff)
    dropped_vids: list[int] = field(default_factory=list)
    #: vids whose chain entry point moved off an aborted head version
    repointed: dict[int, RecordID] = field(default_factory=dict)


def _heap_version_dead(version: TupleVersion, cutoff: int,
                       manager: TransactionManager) -> bool:
    log = manager.commit_log
    if log.is_aborted(version.ts_create):
        return True
    if not log.is_committed(version.ts_create):
        return False
    ts_inv = version.ts_invalidate
    if ts_inv is None:
        return False
    return log.is_committed(ts_inv) and ts_inv < cutoff


def vacuum_heap(table: HeapTable, manager: TransactionManager) -> VacuumResult:
    """Remove dead heap versions and relink HOT chains.

    Chain roots are special: index entries reference them, so a dead root is
    *pruned* — its payload is replaced by a redirect stub that keeps the slot
    alive and forwards chain walks (PostgreSQL's HOT line-pointer redirect).
    Non-root dead versions are removed outright after their predecessor's
    chain link is forwarded.
    """
    cutoff = manager.cutoff_txid()
    result = VacuumResult()
    # predecessor map: rid of a successor -> the version pointing at it
    predecessor: dict[RecordID, TupleVersion] = {}
    versions: dict[RecordID, TupleVersion] = {}
    for rid, version in table.scan_versions():
        if isinstance(version, TupleVersion):
            versions[rid] = version
            if version.next_rid is not None:
                predecessor[version.next_rid] = version

    for rid, version in versions.items():
        if not _heap_version_dead(version, cutoff, manager):
            continue
        page = table._page(rid.page)
        if rid not in predecessor:
            # chain root (or orphan): prune the payload *in place*, keeping
            # the slot reachable for index entries and the object identity
            # intact for chain re-linking (PostgreSQL's HOT redirect)
            version.data = ()
            version.is_tombstone = True
            page.update(rid.slot, version, version.accounted_size())
        else:
            # forward the predecessor's link past this version
            predecessor[rid].next_rid = version.next_rid
            if version.next_rid is not None:
                predecessor[version.next_rid] = predecessor[rid]
            page.delete(rid.slot)
            page.compact()
            result.removed_rids.append(rid)
        result.versions_removed += 1
        table.pool.mark_dirty(table.file, rid.page)
        table.note_free_space(rid.page)
    return result


def vacuum_delta(table: DeltaTable,
                 manager: TransactionManager) -> VacuumResult:
    """Trim delta chains below the visibility horizon.

    Walking each main row's delta chain newest-to-old, the first delta whose
    timestamp lies under the cutoff satisfies every possible reconstruction;
    everything older is unreachable and is cut off.  Pool pages whose deltas
    are all unreachable are freed.
    """
    cutoff = manager.cutoff_txid()
    log = manager.commit_log
    result = VacuumResult()
    reachable: set[RecordID] = set()

    for rid, version in table.scan_versions():
        delta_rid = version.prev_rid
        terminated = (log.is_committed(version.ts_create)
                      and version.ts_create < cutoff)
        anchor = None
        while delta_rid is not None:
            if terminated:
                break
            try:
                delta = table._read_delta(delta_rid)
            except TupleNotFoundError:
                break
            reachable.add(delta_rid)
            anchor = delta
            if log.is_committed(delta.ts_create) and delta.ts_create < cutoff:
                terminated = True
            delta_rid = delta.prev
        if terminated and version.prev_rid is None:
            continue
        if terminated and anchor is not None and anchor.prev is not None:
            anchor.prev = None
            result.versions_removed += 1
        elif terminated and anchor is None and version.prev_rid is not None:
            # the main row itself is old enough: drop its whole chain
            version.prev_rid = None
            result.versions_removed += 1

    # free pool pages containing no reachable deltas
    current_no = (table._pool_current.page_no
                  if table._pool_current is not None else None)
    reachable_pages = {rid.page for rid in reachable}
    for page_no in range(table.pool_file.max_page_no):
        if page_no == current_no or page_no in reachable_pages:
            continue
        if not table.pool_file.has_contents(page_no):
            continue
        table.pool.discard(table.pool_file, page_no)
        table.pool_file.free_page(page_no)
        result.pages_freed += 1
    return result


def vacuum_sias(table: SIASTable, manager: TransactionManager) -> VacuumResult:
    """Reclaim SIAS storage at page granularity.

    Walking each chain from its entry point, everything below the newest
    version whose timestamp is under the cutoff is dead; a committed
    tombstone under the cutoff kills its whole chain; aborted versions at
    the head of a chain are dead too, and the entry point is repointed past
    them (or the chain dropped when nothing else is left).  Because SIAS
    pages are immutable, space is reclaimed only when *every* version on a
    page is dead — then the page is freed and dropped from the buffer pool.
    """
    cutoff = manager.cutoff_txid()
    log = manager.commit_log
    result = VacuumResult()
    dead: set[RecordID] = set()

    for vid, entry_rid in list(table.chain_entries()):
        chain: list[tuple[RecordID, TupleVersion]] = []
        rid: RecordID | None = entry_rid
        while rid is not None:
            try:
                version = table.fetch(rid)
            except TupleNotFoundError:
                break
            chain.append((rid, version))
            rid = version.prev_rid

        # aborted versions sit at the head of a chain (a later writer
        # re-points the entry past them).  They are dead, and their page
        # may be freed below — so the entry point must stop naming them
        # first: repoint it at the newest version that is not aborted
        head = 0
        while (head < len(chain)
               and log.is_aborted(chain[head][1].ts_create)):
            dead.add(chain[head][0])
            result.removed_rids.append(chain[head][0])
            head += 1
        if head == len(chain):
            if head:
                table.drop_chain(vid)
                result.dropped_vids.append(vid)
            continue
        if head:
            table.register_chain(vid, chain[head][0])
            result.repointed[vid] = chain[head][0]
            chain = chain[head:]

        # find the newest committed version below the cutoff horizon
        keep_from: int | None = None
        for idx, (_, version) in enumerate(chain):
            ts = version.ts_create
            if log.is_committed(ts) and ts < cutoff:
                keep_from = idx
                break
        if keep_from is None:
            continue
        anchor_rid, anchor = chain[keep_from]
        if anchor.is_tombstone:
            # whole chain is invisible to everyone: drop it entirely
            for rid_, _ in chain[keep_from:]:
                if rid_ not in dead:
                    dead.add(rid_)
                    result.removed_rids.append(rid_)
            table.drop_chain(vid)
            result.dropped_vids.append(vid)
        else:
            for rid_, _ in chain[keep_from + 1:]:
                if rid_ not in dead:
                    dead.add(rid_)
                    result.removed_rids.append(rid_)
            # the anchor stays; cut its predecessor link (they are dead)
            anchor.prev_rid = None

    result.versions_removed = len(dead)

    # free pages whose live versions are all dead
    dead_by_page: dict[int, set[int]] = {}
    for rid in dead:
        dead_by_page.setdefault(rid.page, set()).add(rid.slot)
    for page_no, slots in dead_by_page.items():
        if page_no in table._tail:
            page = table._tail[page_no]
        elif table.file.has_contents(page_no):
            page = table.file.peek(page_no)  # bookkeeping read, no I/O charge
        else:
            continue
        live = {slot for slot, _ in page.items()}
        if live and live.issubset(slots):
            if page_no in table._tail:
                continue  # tail pages are still being filled; skip
            table.pool.discard(table.file, page_no)
            table.file.free_page(page_no)
            result.pages_freed += 1
    return result
