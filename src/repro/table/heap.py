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
from ..errors import (SlotNotFoundError, TupleNotFoundError,
                      WriteConflictError)
from ..storage.page import SlottedPage
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..txn.manager import TransactionManager
from ..txn.status import CommitLog
from ..txn.transaction import Transaction
from .base import Chain, TupleVersion, VersionStore
from .vacuum import VacuumResult, vacuum_heap
from .visibility import version_visible_heap
from ..types import Key


class HeapTable(VersionStore):
    """Heap of tuple-versions with in-page HOT chains."""

    def __init__(self, name: str, file: PageFile, pool: BufferPool) -> None:
        self.name = name
        self.file = file
        self.pool = pool
        self._next_vid = 1
        self._open_pages: list[int] = []   # pages believed to have free space
        self.hot_updates = 0
        self.cold_updates = 0
        self.inserts = 0
        self.deletes = 0

    # ------------------------------------------------------------------- DML

    def insert(self, txn: Transaction, data: Key) -> tuple[int, RecordID]:
        txn.require_active()
        vid = self._next_vid
        self._next_vid += 1
        version = TupleVersion(vid=vid, data=tuple(data), ts_create=txn.id)
        rid = self._place(version)
        self.inserts += 1
        txn.writes += 1
        return vid, rid

    def update(self, txn: Transaction, rid: RecordID, data: Key,
               allow_hot: bool = True) -> RecordID:
        """Create a successor version.

        ``allow_hot=False`` forces a cold update — the engine passes it when
        any indexed column changes (PostgreSQL's HOT eligibility rule).
        """
        txn.require_active()
        page = self._page(rid.page)
        old = self._read_version(page, rid)
        self._check_updatable(txn, old)

        successor = TupleVersion(vid=old.vid, data=tuple(data),
                                 ts_create=txn.id)
        size = successor.accounted_size()
        if allow_hot and page.fits(size):
            slot = page.insert(successor, size)
            self.pool.mark_dirty(self.file, rid.page)
            new_rid = RecordID(rid.page, slot)
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
        """PostgreSQL-style deletion: invalidate in place, no tombstone record."""
        txn.require_active()
        page = self._page(rid.page)
        old = self._read_version(page, rid)
        self._check_updatable(txn, old)
        old.ts_invalidate = txn.id
        page.dirty = True
        self.pool.mark_dirty(self.file, rid.page)
        self.deletes += 1
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
            while rid is not None:
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
        return vid, adopted

    # ----------------------------------------------------------------- reads

    def fetch(self, rid: RecordID) -> TupleVersion:
        page = self._page(rid.page)
        return self._read_version(page, rid)

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
                                    self._commit_log(txn)):
                return current, version
            current = version.next_rid
        return None

    def scan_versions(self) -> Iterator[tuple[RecordID, TupleVersion]]:
        for page_no in range(self.file.max_page_no):
            if not self.file.has_contents(page_no) and not self.pool.contains(
                    self.file, page_no):
                continue
            page = self._page(page_no)
            for slot, payload in page.items():
                yield RecordID(page_no, slot), payload  # type: ignore[misc]

    def scan_visible(self, txn: Transaction) -> Iterator[tuple[RecordID, Key]]:
        commit_log = self._commit_log(txn)
        for rid, version in self.scan_versions():
            if version_visible_heap(version, txn.snapshot, commit_log):
                yield rid, version.data

    # --------------------------------------------------------------- helpers

    def is_hot(self, old_rid: RecordID, new_rid: RecordID) -> bool:
        """Did an update stay page-local?  A HOT chain is walked from its
        root, so the root's index entries reach the successor."""
        return old_rid.page == new_rid.page

    def vacuum(self, manager: TransactionManager) -> VacuumResult:
        return vacuum_heap(self, manager)

    def note_free_space(self, page_no: int) -> None:
        """Vacuum reports a page with reclaimed space."""
        if page_no not in self._open_pages:
            self._open_pages.append(page_no)

    def _check_updatable(self, txn: Transaction, version: TupleVersion) -> None:
        if version.is_tombstone:
            raise TupleNotFoundError("cannot update a tombstone")
        ts_inv = version.ts_invalidate
        if ts_inv is None or ts_inv == txn.id:
            return
        commit_log = self._commit_log(txn)
        if commit_log.is_aborted(ts_inv):
            return
        raise WriteConflictError(
            f"tuple vid={version.vid} already invalidated by txn {ts_inv}")

    def _commit_log(self, txn: Transaction) -> CommitLog:
        return txn._manager.commit_log

    def _place(self, version: TupleVersion) -> RecordID:
        size = version.accounted_size()
        for idx, page_no in enumerate(self._open_pages):
            page = self._page(page_no)
            if page.fits(size):
                slot = page.insert(version, size)
                self.pool.mark_dirty(self.file, page_no)
                return RecordID(page_no, slot)
            del self._open_pages[idx]
            break
        page_no = self.file.allocate_page()
        page = self._page(page_no)
        slot = page.insert(version, size)
        self.pool.mark_dirty(self.file, page_no)
        self._open_pages.append(page_no)
        return RecordID(page_no, slot)

    def _page(self, page_no: int) -> SlottedPage:
        page = self.pool.get_or_create(
            self.file, page_no,
            lambda: SlottedPage(page_no, self.file.page_size))
        return page  # type: ignore[return-value]

    def _read_version(self, page: SlottedPage, rid: RecordID) -> TupleVersion:
        try:
            payload = page.read(rid.slot)
        except SlotNotFoundError as exc:  # uniform not-found error
            raise TupleNotFoundError(f"{self.name}: bad rid {rid}") from exc
        if not isinstance(payload, TupleVersion):
            raise TupleNotFoundError(f"{self.name}: {rid} is not a version")
        return payload

    def __repr__(self) -> str:
        return (f"HeapTable({self.name!r}, inserts={self.inserts}, "
                f"hot={self.hot_updates}, cold={self.cold_updates})")
