"""SIAS: Snapshot Isolation Append Storage (paper §3, [9,11]).

Design decisions modelled:

* **append-only** base table — versions are written exactly once; filled tail
  pages are flushed to storage with sequential extent-sized writes;
* **new-to-old** ordering — every version links to its *predecessor*; the
  chain entry point is the newest version;
* **one-point invalidation** — no invalidation timestamp is ever written; a
  version is invalidated implicitly by the existence of a successor;
* deletion appends a **tombstone** version terminating the chain.

The table maintains the chain entry points (vid → newest rid) as in-memory
bookkeeping (the SIAS-chains papers keep equivalent per-tuple entry points);
index structures may reference versions physically (one entry per version) or
logically through :class:`~repro.table.indirection.IndirectionLayer`.
"""

from __future__ import annotations

from typing import Iterator

from ..buffer.pool import BufferPool
from ..errors import (PageNotFoundError, SlotNotFoundError,
                      TupleNotFoundError, WriteConflictError)
from ..storage.page import SlottedPage
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..txn.manager import TransactionManager
from ..txn.transaction import Transaction
from .base import Chain, TupleVersion, VersionStore
from .vacuum import VacuumResult, vacuum_sias
from ..types import Key


class SIASTable(VersionStore):
    """Append-only version store with new-to-old chains."""

    entry_moves = True

    def __init__(self, name: str, file: PageFile, pool: BufferPool,
                 flush_extent_pages: int | None = None) -> None:
        self.name = name
        self.file = file
        self.pool = pool
        self.flush_extent_pages = (flush_extent_pages
                                   if flush_extent_pages is not None
                                   else file.extent_pages)
        self._next_vid = 1
        #: unflushed tail pages: page_no -> SlottedPage (outside the pool)
        self._tail: dict[int, SlottedPage] = {}
        self._tail_order: list[int] = []
        self._current: SlottedPage | None = None
        #: chain entry points: vid -> rid of the newest version
        self._entry: dict[int, RecordID] = {}
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        self.tail_flushes = 0

    # ------------------------------------------------------------------- DML

    def insert(self, txn: Transaction, data: Key) -> tuple[int, RecordID]:
        txn.require_active()
        vid = self._next_vid
        self._next_vid += 1
        version = TupleVersion(vid=vid, data=tuple(data), ts_create=txn.id)
        rid = self._append(version)
        self._entry[vid] = rid
        self.inserts += 1
        txn.writes += 1
        return vid, rid

    def update(self, txn: Transaction, rid: RecordID, data: Key,
               allow_hot: bool = True) -> RecordID:
        txn.require_active()
        old = self.fetch(rid)
        self._check_updatable(txn, old, rid)
        successor = TupleVersion(vid=old.vid, data=tuple(data),
                                 ts_create=txn.id, prev_rid=rid)
        new_rid = self._append(successor)
        self._entry[old.vid] = new_rid
        self.updates += 1
        txn.writes += 1
        return new_rid

    def delete(self, txn: Transaction, rid: RecordID) -> RecordID:
        txn.require_active()
        old = self.fetch(rid)
        self._check_updatable(txn, old, rid)
        tombstone = TupleVersion(vid=old.vid, data=(), ts_create=txn.id,
                                 prev_rid=rid, is_tombstone=True)
        new_rid = self._append(tombstone)
        self._entry[old.vid] = new_rid
        self.deletes += 1
        txn.writes += 1
        return new_rid

    # ------------------------------------------------------------- history

    def chains(self) -> list[Chain]:
        """Each chain walked new-to-old from its entry point, reversed."""
        chains: list[Chain] = []
        for _vid, entry in list(self._entry.items()):
            chain: Chain = []
            rid: RecordID | None = entry
            while rid is not None:
                version = self.fetch(rid)
                chain.append((rid, version))
                rid = version.prev_rid
            chain.reverse()
            chains.append(chain)
        return chains

    def adopt_chain(self, chain: Chain
                    ) -> tuple[int, dict[RecordID, RecordID]]:
        """Append the versions oldest first, so each predecessor's rid is
        known when its successor is placed, then publish the entry
        point."""
        vid = self._next_vid
        self._next_vid += 1
        adopted: dict[RecordID, RecordID] = {}
        prev_new: RecordID | None = None
        for old_rid, version in chain:
            prev_new = self._append(TupleVersion(
                vid=vid, data=version.data, ts_create=version.ts_create,
                prev_rid=prev_new, is_tombstone=version.is_tombstone))
            adopted[old_rid] = prev_new
        assert prev_new is not None
        self._entry[vid] = prev_new
        return vid, adopted

    def register_chain(self, vid: int, newest_rid: RecordID) -> None:
        """Point a chain's entry at ``newest_rid`` (vacuum repoints it
        past aborted head versions)."""
        self._entry[vid] = newest_rid

    # ----------------------------------------------------------------- reads

    def fetch(self, rid: RecordID) -> TupleVersion:
        return self._read_version(self._page(rid.page), rid)

    def _candidate_tuple(self, rid: RecordID) -> int | None:
        """Under one-point invalidation only the chain's entry point tells
        a version's validity: the candidate is read (a random read) to
        learn its tuple."""
        try:
            return self.fetch(rid).vid
        except TupleNotFoundError:
            return None

    def _chain_start(self, vid: int) -> RecordID | None:
        return self._entry.get(vid)

    def chain_entries(self) -> Iterator[tuple[int, RecordID]]:
        yield from self._entry.items()

    def visible_version(self, txn: Transaction,
                        rid: RecordID) -> tuple[RecordID, TupleVersion] | None:
        """Walk new-to-old from ``rid`` to the first version ``txn`` sees.

        Under one-point invalidation the first creation-visible version on
        the way down *is* the visible one (anything newer was invisible);
        a visible tombstone means the tuple is deleted for this snapshot.
        """
        commit_log = txn._manager.commit_log
        current: RecordID | None = rid
        while current is not None:
            try:
                version = self.fetch(current)
            except TupleNotFoundError:
                return None
            if txn.snapshot.sees_ts(version.ts_create, commit_log):
                if version.is_tombstone:
                    return None
                return current, version
            current = version.prev_rid
        return None

    def scan_versions(self) -> Iterator[tuple[RecordID, TupleVersion]]:
        for page_no in range(self.file.max_page_no):
            page = self._tail.get(page_no)
            if page is None:
                if not self.file.has_contents(page_no) and not (
                        self.pool.contains(self.file, page_no)):
                    continue
                page = self.pool.get(self.file, page_no)  # type: ignore[assignment]
            for slot, payload in page.items():
                yield RecordID(page_no, slot), payload  # type: ignore[misc]

    def scan_visible(self, txn: Transaction) -> Iterator[tuple[RecordID, Key]]:
        for vid, entry_rid in list(self._entry.items()):
            resolved = self.visible_version(txn, entry_rid)
            if resolved is not None:
                rid, version = resolved
                yield rid, version.data

    # --------------------------------------------------------------- helpers

    def flush_tail(self) -> int:
        return self._flush_pages(self._tail_order)

    def vacuum(self, manager: TransactionManager) -> VacuumResult:
        return vacuum_sias(self, manager)

    def drop_chain(self, vid: int) -> None:
        """Vacuum removed the whole chain (tombstone below cutoff)."""
        self._entry.pop(vid, None)

    def _check_updatable(self, txn: Transaction, version: TupleVersion,
                         rid: RecordID) -> None:
        if version.is_tombstone:
            raise TupleNotFoundError("cannot update a tombstone")
        current_entry = self._entry.get(version.vid)
        if current_entry is None or current_entry != rid:
            # someone already appended a successor (first-updater-wins),
            # unless that successor's creator aborted and we re-point.
            successor_ok = False
            if current_entry is not None:
                successor = self.fetch(current_entry)
                commit_log = txn._manager.commit_log
                if commit_log.is_aborted(successor.ts_create):
                    self._entry[version.vid] = rid
                    successor_ok = True
            if not successor_ok:
                raise WriteConflictError(
                    f"tuple vid={version.vid}: {rid} is not the chain entry "
                    f"point (entry is {current_entry})")

    def _append(self, version: TupleVersion) -> RecordID:
        size = version.accounted_size()
        page = self._current
        if page is None or not page.fits(size):
            page = self._new_tail_page()
        slot = page.insert(version, size)
        return RecordID(page.page_no, slot)

    def _new_tail_page(self) -> SlottedPage:
        if len(self._tail_order) >= self.flush_extent_pages:
            self._flush_pages(self._tail_order)
        page_no = self.file.allocate_page()
        page = SlottedPage(page_no, self.file.page_size)
        self._tail[page_no] = page
        self._tail_order.append(page_no)
        self._current = page
        return page

    def _flush_pages(self, page_nos: list[int]) -> int:
        if not page_nos:
            return 0
        items = [(no, self._tail[no]) for no in list(page_nos)]
        self.file.flush_pages_sequential(items)
        for no, page in items:
            page.dirty = False
            self._tail.pop(no, None)
            # keep recently written versions warm in the shared buffer
            self.pool.put(self.file, no, page, dirty=False)
        self._tail_order = [n for n in self._tail_order if n in self._tail]
        if self._current is not None and self._current.page_no not in self._tail:
            self._current = None
        self.tail_flushes += 1
        return len(items)

    def _page(self, page_no: int) -> SlottedPage:
        tail_page = self._tail.get(page_no)
        if tail_page is not None:
            return tail_page
        try:
            return self.pool.get(self.file, page_no)  # type: ignore[return-value]
        except PageNotFoundError as exc:
            # vacuum freed the page: its versions are gone, the same
            # not-found as a missing slot
            raise TupleNotFoundError(
                f"{self.name}: page {page_no} holds no versions") from exc

    def _read_version(self, page: SlottedPage, rid: RecordID) -> TupleVersion:
        try:
            payload = page.read(rid.slot)
        except SlotNotFoundError as exc:  # uniform not-found error
            raise TupleNotFoundError(f"{self.name}: bad rid {rid}") from exc
        if not isinstance(payload, TupleVersion):
            raise TupleNotFoundError(f"{self.name}: {rid} is not a version")
        return payload

    def __repr__(self) -> str:
        return (f"SIASTable({self.name!r}, inserts={self.inserts}, "
                f"updates={self.updates}, deletes={self.deletes})")
