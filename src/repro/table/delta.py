"""Delta-record version storage (paper §3.1, Figure 4 right side).

The design alternative the paper *rejects* in §3.6 — implemented so the
trade-off can be measured (see ``benchmarks/bench_ablation_version_storage``):

* the **main store** holds exactly one physically materialised version per
  tuple — the newest — updated **in place** (recordIDs are stable, so
  non-key updates need no index maintenance, like InnoDB's clustered rows);
* every update first appends a **delta record** (the changed columns' *old*
  values plus the old version's timestamp) to a separate, append-only
  **version pool** (à la SQL Server's tempdb version store / InnoDB undo);
* old versions are **reconstructed on demand**: a reader whose snapshot
  predates the main row walks the delta chain newest-to-old, applying old
  values until it reaches a visible timestamp.

Costs modelled: in-place main-row writes (random, write-amplifying),
sequential pool appends, and — the §3.6 argument — pool page reads plus CPU
per delta applied during reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
from .base import Chain, TupleVersion, VersionStore, row_size
from .vacuum import VacuumResult, vacuum_delta
from ..types import Key


@dataclass(slots=True)
class DeltaRecord:
    """Old values of the columns an update changed (plus chain metadata)."""

    vid: int
    ts_create: int                    #: creation ts of the *old* version
    old_values: dict[int, object]     #: column position -> old value
    prev: RecordID | None             #: next older delta in the pool
    was_tombstone: bool = False

    def accounted_size(self) -> int:
        return 20 + row_size(list(self.old_values.values())) \
            + 4 * len(self.old_values)


def _apply(values: list[object], delta: DeltaRecord) -> None:
    """Roll ``values`` back over ``delta``: put its old column values in
    place (a deleted row's delta holds its full image)."""
    for pos, old_value in delta.old_values.items():
        if pos >= len(values):
            values.extend([None] * (pos + 1 - len(values)))
        values[pos] = old_value


class DeltaTable(VersionStore):
    """Single in-place version per tuple + append-only delta pool."""

    def __init__(self, name: str, main_file: PageFile, pool_file: PageFile,
                 pool: BufferPool) -> None:
        self.name = name
        self.main_file = main_file
        self.pool_file = pool_file
        self.pool = pool
        self._next_vid = 1
        self._open_pages: list[int] = []
        self._pool_current: SlottedPage | None = None
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        self.deltas_written = 0
        self.reconstructions = 0
        self.deltas_applied = 0

    # ------------------------------------------------------------------- DML

    def insert(self, txn: Transaction, data: Key) -> tuple[int, RecordID]:
        txn.require_active()
        vid = self._next_vid
        self._next_vid += 1
        version = TupleVersion(vid=vid, data=tuple(data), ts_create=txn.id)
        rid = self._place_main(version)
        self.inserts += 1
        txn.writes += 1
        return vid, rid

    def update(self, txn: Transaction, rid: RecordID, data: Key,
               allow_hot: bool = True) -> RecordID:
        """In-place update; the displaced version becomes a delta record.

        The returned recordID equals ``rid`` — main rows never move, which
        is exactly why this design needs no index maintenance for non-key
        updates.
        """
        txn.require_active()
        page = self._page(rid.page)
        current = self._read_version(page, rid)
        self._check_updatable(txn, current, rid)
        data = tuple(data)
        old_values = {pos: old for pos, (old, new)
                      in enumerate(zip(current.data, data)) if old != new}
        delta_rid = self._append_delta(DeltaRecord(
            vid=current.vid, ts_create=current.ts_create,
            old_values=old_values, prev=current.prev_rid))
        current.data = data
        current.ts_create = txn.id
        current.prev_rid = delta_rid
        page.update(rid.slot, current, current.accounted_size())
        self.pool.mark_dirty(self.main_file, rid.page)
        self.updates += 1
        txn.writes += 1
        return rid

    def delete(self, txn: Transaction, rid: RecordID) -> RecordID:
        txn.require_active()
        page = self._page(rid.page)
        current = self._read_version(page, rid)
        self._check_updatable(txn, current, rid)
        delta_rid = self._append_delta(DeltaRecord(
            vid=current.vid, ts_create=current.ts_create,
            old_values={pos: value for pos, value in enumerate(current.data)},
            prev=current.prev_rid))
        current.ts_create = txn.id
        current.prev_rid = delta_rid
        current.is_tombstone = True
        page.update(rid.slot, current, current.accounted_size())
        self.pool.mark_dirty(self.main_file, rid.page)
        self.deletes += 1
        txn.writes += 1
        return rid

    # ----------------------------------------------------------------- reads

    def fetch(self, rid: RecordID) -> TupleVersion:
        page = self._page(rid.page)
        return self._read_version(page, rid)

    def visible_version(self, txn: Transaction,
                        rid: RecordID) -> tuple[RecordID, TupleVersion] | None:
        """Return the main row, or reconstruct the snapshot's version from
        the delta chain (the §3.6 "tuple reconstruction cost")."""
        commit_log = txn._manager.commit_log
        try:
            current = self.fetch(rid)
        except TupleNotFoundError:
            return None
        if txn.snapshot.sees_ts(current.ts_create, commit_log):
            if current.is_tombstone:
                return None
            return rid, current

        # walk the pool, applying old values newest-to-old
        self.reconstructions += 1
        values = list(current.data)
        tombstone = current.is_tombstone
        delta_rid = current.prev_rid
        while delta_rid is not None:
            delta = self._read_delta(delta_rid)
            self.deltas_applied += 1
            _apply(values, delta)
            tombstone = delta.was_tombstone
            if txn.snapshot.sees_ts(delta.ts_create, commit_log):
                if tombstone:
                    return None
                return rid, TupleVersion(vid=current.vid, data=tuple(values),
                                         ts_create=delta.ts_create)
            delta_rid = delta.prev
        return None

    def scan_versions(self) -> Iterator[tuple[RecordID, TupleVersion]]:
        for page_no in range(self.main_file.max_page_no):
            if not self.main_file.has_contents(page_no) and not (
                    self.pool.contains(self.main_file, page_no)):
                continue
            page = self._page(page_no)
            for slot, payload in page.items():
                if isinstance(payload, TupleVersion):
                    yield RecordID(page_no, slot), payload

    def scan_visible(self, txn: Transaction) -> Iterator[tuple[RecordID, Key]]:
        for rid, _version in self.scan_versions():
            resolved = self.visible_version(txn, rid)
            if resolved is not None:
                yield resolved[0], resolved[1].data

    def fetch_visible(self, txn: Transaction, rids: list[RecordID]
                      ) -> tuple[list[RecordID], list[TupleVersion]]:
        """A recordID names only the in-place main row, so an old snapshot
        reconstructs its version from the delta chain (the §3.6 "tuple
        reconstruction cost"); one that does not reconstruct is left out."""
        hits = [hit for hit in map(partial(self.visible_version, txn), rids)
                if hit is not None]
        return [rid for rid, _ in hits], [version for _, version in hits]

    def chains(self) -> list[Chain]:
        """Each main row's history rebuilt from the version pool, newest
        to oldest and then reversed; every version keeps the main row's
        rid, since that is all an index entry can name."""
        chains: list[Chain] = []
        for rid, current in self.scan_versions():
            chain: Chain = [(rid, current)]
            values = list(current.data)
            delta_rid = current.prev_rid
            while delta_rid is not None:
                delta = self._read_delta(delta_rid)
                _apply(values, delta)
                chain.append((rid, TupleVersion(
                    vid=current.vid, data=tuple(values),
                    ts_create=delta.ts_create,
                    is_tombstone=delta.was_tombstone)))
                delta_rid = delta.prev
            chain.reverse()
            chains.append(chain)
        return chains

    def vacuum(self, manager: TransactionManager) -> VacuumResult:
        return vacuum_delta(self, manager)

    # --------------------------------------------------------------- helpers

    def _check_updatable(self, txn: Transaction, current: TupleVersion,
                         rid: RecordID) -> None:
        commit_log = txn._manager.commit_log
        self._undo_aborted(current, commit_log)
        if current.is_tombstone:
            raise TupleNotFoundError(f"{self.name}: {rid} is deleted")
        ts = current.ts_create
        if ts == txn.id:
            return
        if not commit_log.is_committed(ts):
            raise WriteConflictError(
                f"tuple vid={current.vid}: uncommitted writer {ts}")
        if not txn.snapshot.sees_ts(ts, commit_log):
            raise WriteConflictError(
                f"tuple vid={current.vid}: updated by concurrent txn {ts}")

    def _undo_aborted(self, current: TupleVersion,
                      commit_log: CommitLog) -> None:
        """Roll an aborted in-place change back from the version pool.

        In-place main rows are the one design here that physically damages
        data on abort; the delta chain doubles as the undo log (exactly the
        InnoDB arrangement §3.1 alludes to).  Rollback is lazy: the next
        writer restores the newest non-aborted state before proceeding.
        """
        while (commit_log.is_aborted(current.ts_create)
               and current.prev_rid is not None):
            delta = self._read_delta(current.prev_rid)
            values = list(current.data)
            _apply(values, delta)
            current.data = tuple(values)
            current.ts_create = delta.ts_create
            current.prev_rid = delta.prev
            current.is_tombstone = delta.was_tombstone

    def _place_main(self, version: TupleVersion) -> RecordID:
        size = version.accounted_size()
        for idx, page_no in enumerate(self._open_pages):
            page = self._page(page_no)
            if page.fits(size):
                slot = page.insert(version, size)
                self.pool.mark_dirty(self.main_file, page_no)
                return RecordID(page_no, slot)
            del self._open_pages[idx]
            break
        page_no = self.main_file.allocate_page()
        page = self._page(page_no)
        slot = page.insert(version, size)
        self.pool.mark_dirty(self.main_file, page_no)
        self._open_pages.append(page_no)
        return RecordID(page_no, slot)

    def _append_delta(self, delta: DeltaRecord) -> RecordID:
        size = delta.accounted_size()
        page = self._pool_current
        if page is None or not page.fits(size):
            if page is not None:
                self._flush_pool_page(page)
            page_no = self.pool_file.allocate_page()
            page = SlottedPage(page_no, self.pool_file.page_size)
            self.pool_file.put_page_nocost(page_no, page)
            self._pool_current = page
        slot = page.insert(delta, size)
        self.deltas_written += 1
        return RecordID(page.page_no, slot)

    def _flush_pool_page(self, page: SlottedPage) -> None:
        """Pool pages are written once, sequentially, when they fill."""
        self.pool_file.flush_pages_sequential([(page.page_no, page)])
        self.pool.put(self.pool_file, page.page_no, page, dirty=False)

    def _read_delta(self, rid: RecordID) -> DeltaRecord:
        if (self._pool_current is not None
                and self._pool_current.page_no == rid.page):
            page = self._pool_current
        else:
            page = self.pool.get(self.pool_file, rid.page)
        try:
            payload = page.read(rid.slot)  # type: ignore[union-attr]
        except SlotNotFoundError as exc:
            raise TupleNotFoundError(f"{self.name}: bad delta {rid}") from exc
        if not isinstance(payload, DeltaRecord):
            raise TupleNotFoundError(f"{self.name}: {rid} is not a delta")
        return payload

    def _page(self, page_no: int) -> SlottedPage:
        page = self.pool.get_or_create(
            self.main_file, page_no,
            lambda: SlottedPage(page_no, self.main_file.page_size))
        return page  # type: ignore[return-value]

    def _read_version(self, page: SlottedPage, rid: RecordID) -> TupleVersion:
        try:
            payload = page.read(rid.slot)
        except SlotNotFoundError as exc:
            raise TupleNotFoundError(f"{self.name}: bad rid {rid}") from exc
        if not isinstance(payload, TupleVersion):
            raise TupleNotFoundError(f"{self.name}: {rid} is not a row")
        return payload

    def __repr__(self) -> str:
        return (f"DeltaTable({self.name!r}, inserts={self.inserts}, "
                f"updates={self.updates}, deltas={self.deltas_written})")
