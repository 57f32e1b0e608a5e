"""PostgreSQL-style heap table with HOT updates.

Design decisions modelled (paper §3 and §5 baseline "B-Tree (PG/HOT)"):

* **physically materialised** versions, **old-to-new** ordering — the chain
  entry point is the oldest version; each version links to its successor;
* **two-point invalidation** — creating a successor writes the invalidation
  timestamp onto the predecessor *in place* (a dirty page, hence a random
  write on buffer eviction);
* **HOT (heap-only tuples)** — if the successor fits on the predecessor's
  page, the chain stays page-local and *no index maintenance* is needed
  (the index keeps pointing at the chain root).  Cold updates (successor on
  another page) require a new index entry.
"""

from __future__ import annotations

from typing import Iterator

from ..buffer.pool import BufferPool
from ..errors import TupleNotFoundError
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..txn.status import CommitLog
from ..txn.transaction import Transaction
from .base import Chain, PagedStore, TupleVersion, VacuumResult
from .visibility import version_visible_heap
from ..types import Key


class HeapTable(PagedStore):
    """Heap of tuple-versions with in-page HOT chains."""

    def __init__(self, name: str, file: PageFile, pool: BufferPool) -> None:
        super().__init__(name)
        self.file = file
        self.pool = pool
        self._open_pages: list[int] = []   # pages believed to have free space
        #: heap-only tuples: versions a HOT update placed, which the index
        #: entries of their chain's earlier versions reach
        self._heap_only: set[RecordID] = set()
        self.hot_updates = 0
        self.cold_updates = 0

    # ------------------------------------------------------------------- DML

    def update(self, txn: Transaction, rid: RecordID, data: Key,
               allow_hot: bool = True) -> RecordID:
        """Create a successor version.

        ``allow_hot=False`` forces a cold update — the engine passes it when
        any indexed column changes (PostgreSQL's HOT eligibility rule).
        """
        txn.require_active()
        page = self._page(rid.page)
        old = self._read_version(page, rid)
        self._first_updater_wins(txn, rid, old)

        successor = TupleVersion(vid=old.vid, data=tuple(data),
                                 ts_create=txn.id)
        size = successor.accounted_size()
        if allow_hot and page.fits(size):
            slot = page.insert(successor, size)
            self.pool.mark_dirty(self.file, rid.page)
            new_rid = RecordID(rid.page, slot)
            self._heap_only.add(new_rid)
            self.hot_updates += 1
        else:
            new_rid = self._place(successor)
            self.cold_updates += 1

        # two-point invalidation: stamp the predecessor in place
        old.ts_invalidate = txn.id
        old.next_rid = new_rid
        page.dirty = True
        self.pool.mark_dirty(self.file, rid.page)
        txn.writes += 1
        return new_rid

    def delete(self, txn: Transaction, rid: RecordID) -> RecordID:
        """PostgreSQL-style deletion: invalidate in place, no tombstone
        record.  A successor an aborted update left is unlinked: it is an
        orphan of its own, and the delete closes this chain."""
        txn.require_active()
        page = self._page(rid.page)
        old = self._read_version(page, rid)
        self._first_updater_wins(txn, rid, old)
        old.next_rid = None
        old.ts_invalidate = txn.id
        page.dirty = True
        self.pool.mark_dirty(self.file, rid.page)
        txn.writes += 1
        return rid

    # ------------------------------------------------------------- history

    def chains(self) -> list[Chain]:
        """Chains from their roots (no version links to them) along
        ``next_rid``; a delete only stamps its version's ``ts_invalidate``,
        so a chain that ends invalidated closes with a tombstone at that
        version's rid (the rid :meth:`delete` returns)."""
        versions = dict(self.scan_versions())
        successors = {v.next_rid for v in versions.values()
                      if v.next_rid is not None}
        chains: list[Chain] = []
        for root in versions:
            if root in successors:
                continue
            chain: Chain = []
            rid: RecordID | None = root
            while rid is not None and rid in versions:
                chain.append((rid, versions[rid]))
                rid = versions[rid].next_rid
            last_rid, last = chain[-1]
            if last.ts_invalidate is not None and not last.is_tombstone:
                chain.append((last_rid, TupleVersion(
                    vid=last.vid, data=(), ts_create=last.ts_invalidate,
                    is_tombstone=True)))
            chains.append(chain)
        return chains

    def adopt_chain(self, chain: Chain
                    ) -> tuple[int, dict[RecordID, RecordID]]:
        """Place the versions newest first, so each successor's rid is
        known when its predecessor is placed.  A deleted chain's closing
        tombstone shares its last version's rid: that version's
        ``ts_invalidate`` carries the delete."""
        vid = self._next_vid
        self._next_vid += 1
        if len(chain) > 1 and chain[-1][0] == chain[-2][0]:
            chain = chain[:-1]
        adopted: dict[RecordID, RecordID] = {}
        next_new: RecordID | None = None
        for old_rid, version in reversed(chain):
            next_new = self._place(TupleVersion(
                vid=vid, data=version.data, ts_create=version.ts_create,
                ts_invalidate=version.ts_invalidate, next_rid=next_new,
                is_tombstone=version.is_tombstone))
            adopted[old_rid] = next_new
        assert next_new is not None
        self._entry[vid] = next_new
        return vid, adopted

    # ----------------------------------------------------------------- reads

    def visible_version(self, txn: Transaction,
                        rid: RecordID) -> tuple[RecordID, TupleVersion] | None:
        """Walk the chain old-to-new from ``rid`` to the visible version."""
        current: RecordID | None = rid
        while current is not None:
            try:
                version = self.fetch(current)
            except TupleNotFoundError:
                return None
            if version_visible_heap(version, txn.snapshot,
                                    txn._manager.commit_log):
                return current, version
            current = version.next_rid
        return None

    def scan_visible(self, txn: Transaction) -> Iterator[tuple[RecordID, Key]]:
        commit_log = txn._manager.commit_log
        for rid, version in self.scan_versions():
            if version_visible_heap(version, txn.snapshot, commit_log):
                yield rid, version.data

    # --------------------------------------------------------------- helpers

    def is_hot(self, old_rid: RecordID, new_rid: RecordID) -> bool:
        """Did the update take the HOT branch?  A HOT chain is walked from
        its root, so the root's index entries reach the successor; a cold
        update that happens to land on the same page does not count."""
        return new_rid in self._heap_only

    def _newer_writer(self, rid: RecordID, version: TupleVersion,
                      log: CommitLog) -> int | None:
        """Two-point invalidation stamps the successor's writer (or the
        deleter) on the version itself."""
        stamp = version.ts_invalidate
        if stamp is None or log.is_aborted(stamp):
            return None
        return stamp

    def _reclaim(self, chain: Chain, kept: Chain, result: VacuumResult,
                 log: CommitLog) -> bool:
        """Delete the dead slots.  Index entries and the map name a
        chain's root, so the dead root of a live chain stays as a redirect
        stub to the first survivor (PostgreSQL's HOT line-pointer
        redirect); a survivor whose successors aborted loses its link to
        them, and the invalidation stamp too when that aborted."""
        if kept and chain[-1] is not kept[-1]:
            survivor = kept[-1][1]
            survivor.next_rid = None
            stamp = survivor.ts_invalidate
            if stamp is not None and log.is_aborted(stamp):
                survivor.ts_invalidate = None
            self.pool.mark_dirty(self.file, kept[-1][0].page)
        keep = {rid for rid, _ in kept}
        root = chain[0][0]
        # a closing tombstone shares its version's rid: each slot once
        for rid in dict.fromkeys(rid for rid, _ in chain if rid not in keep):
            page = self._page(rid.page)
            if kept and rid == root:
                stub = chain[0][1]
                if not stub.is_tombstone:   # not pruned by an earlier pass
                    result.versions_removed += 1
                stub.data, stub.is_tombstone = (), True
                stub.next_rid = kept[0][0]
                page.update(rid.slot, stub, stub.accounted_size())
            else:
                page.delete(rid.slot)
                page.compact()
                self._heap_only.discard(rid)    # the slot may be reused
                result.removed_rids.append(rid)
                result.versions_removed += 1
            self.pool.mark_dirty(self.file, rid.page)
            self.note_free_space(rid.page)
        return False

    def __repr__(self) -> str:
        return (f"HeapTable({self.name!r}, tuples={len(self._entry)}, "
                f"hot={self.hot_updates}, cold={self.cold_updates})")
