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
that map is the table's VID map, so index structures may reference versions
physically (one entry per version) or logically by VID.
"""

from __future__ import annotations

from typing import Iterator

from ..buffer.pool import BufferPool
from ..errors import PageNotFoundError, TupleNotFoundError
from ..storage.page import SlottedPage
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..txn.status import CommitLog
from ..txn.transaction import Transaction
from .base import Chain, TupleVersion, VacuumResult, VersionStore
from .vacuum import vacuum_sias
from ..types import Key


class SIASTable(VersionStore):
    """Append-only version store with new-to-old chains."""

    def __init__(self, name: str, file: PageFile, pool: BufferPool,
                 flush_extent_pages: int | None = None) -> None:
        super().__init__(name)
        self.file = file
        self.pool = pool
        self.flush_extent_pages = (flush_extent_pages
                                   if flush_extent_pages is not None
                                   else file.extent_pages)
        #: unflushed tail pages: page_no -> SlottedPage (outside the pool)
        self._tail: dict[int, SlottedPage] = {}
        self._tail_order: list[int] = []
        self._current: SlottedPage | None = None
        #: aborted runs an update moved an entry past: the run's newest
        #: version -> the version the run was appended to
        self._orphans: dict[RecordID, RecordID] = {}
        self.tail_flushes = 0

    # ------------------------------------------------------------------- DML

    def insert(self, txn: Transaction, data: Key) -> tuple[int, RecordID]:
        txn.require_active()
        vid = self._next_vid
        self._next_vid += 1
        version = TupleVersion(vid=vid, data=tuple(data), ts_create=txn.id)
        rid = self._append(version)
        self._map_vid(vid, rid)
        txn.writes += 1
        return vid, rid

    def update(self, txn: Transaction, rid: RecordID, data: Key,
               allow_hot: bool = True) -> RecordID:
        txn.require_active()
        old = self.fetch(rid)
        self._first_updater_wins(txn, rid, old)
        successor = TupleVersion(vid=old.vid, data=tuple(data),
                                 ts_create=txn.id, prev_rid=rid)
        new_rid = self._append(successor)
        self._map_vid(old.vid, new_rid)
        txn.writes += 1
        return new_rid

    def delete(self, txn: Transaction, rid: RecordID) -> RecordID:
        txn.require_active()
        old = self.fetch(rid)
        self._first_updater_wins(txn, rid, old)
        tombstone = TupleVersion(vid=old.vid, data=(), ts_create=txn.id,
                                 prev_rid=rid, is_tombstone=True)
        new_rid = self._append(tombstone)
        self._map_vid(old.vid, new_rid)
        txn.writes += 1
        return new_rid

    # ------------------------------------------------------------- history

    def chains(self) -> list[Chain]:
        """Each chain walked new-to-old from its entry point, reversed; a
        walk ends at a link that names no version.  An aborted run whose
        entry an update moved past is listed first, as a chain of its own
        that ends above the version it was appended to."""
        chains = [self._walk(head, stop)
                  for head, stop in self._orphans.items()]
        chains += [self._walk(entry) for entry in list(self._entry.values())]
        return [chain for chain in chains if chain]

    def _walk(self, rid: RecordID | None,
              stop: RecordID | None = None) -> Chain:
        chain: Chain = []
        while rid is not None and rid != stop:
            try:
                version = self.fetch(rid)
            except TupleNotFoundError:
                break
            chain.append((rid, version))
            rid = version.prev_rid
        chain.reverse()
        return chain

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

    def _free_pages(self, survivors: list[Chain],
                    result: VacuumResult) -> None:
        vacuum_sias(self, survivors, result)

    def _reclaim(self, chain: Chain, kept: Chain, result: VacuumResult,
                 log: CommitLog) -> bool:
        """Repoint the entry at the newest survivor and cut the oldest
        survivor's link to the dead; an orphan run loses its record.
        Dead versions stay on their immutable pages until
        :func:`~repro.table.vacuum.vacuum_sias` frees a page."""
        newest = chain[-1][0]
        # the vid's live chain, not an orphan run (whose record goes)
        live = self._orphans.pop(newest, None) is None
        moved = live and bool(kept) and kept[-1][0] != newest
        if kept:
            kept[0][1].prev_rid = None
        if moved:
            self._entry[chain[0][1].vid] = kept[-1][0]
        keep = {rid for rid, _ in kept}
        dead = [rid for rid, _ in chain if rid not in keep]
        result.removed_rids += dead
        result.versions_removed += len(dead)
        return moved

    def _newer_writer(self, rid: RecordID, version: TupleVersion,
                      log: CommitLog) -> int | None:
        """Walk down from the entry point to ``rid``: the first version on
        the way whose writer did not abort is the newer one.  A run that
        all aborted is stepped past: the entry moves back to ``rid`` and
        the run is recorded as an orphan.  A version the walk never meets
        is off the tuple's chain (vacuum dropped it)."""
        vid = version.vid
        entry = self._entry.get(vid)
        if entry == rid:
            return None
        above = entry
        while above is not None and above != rid:
            newer = self.fetch(above)
            if not log.is_aborted(newer.ts_create):
                return newer.ts_create
            above = newer.prev_rid
        if above is None:
            raise TupleNotFoundError(
                f"{self.name}: {rid} is not on vid {vid}'s chain")
        self._orphans[entry] = rid
        self._entry[vid] = rid
        return None

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

    def __repr__(self) -> str:
        return (f"SIASTable({self.name!r}, tuples={len(self._entry)}, "
                f"flushes={self.tail_flushes})")
