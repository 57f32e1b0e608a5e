"""Common tuple-version model and the version-store interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Hashable, Iterable,
                    Iterator, Sequence, cast)

from ..errors import (SlotNotFoundError, TupleNotFoundError,
                      WriteConflictError)
from ..sim.clock import SimClock
from ..storage.page import SlottedPage
from ..storage.recordid import RecordID
from ..txn.transaction import Transaction
from ..types import Key

if TYPE_CHECKING:
    from ..buffer.pool import BufferPool
    from ..storage.pagefile import PageFile
    from ..txn.manager import TransactionManager
    from ..txn.status import CommitLog

#: Accounted per-version header bytes (PostgreSQL's HeapTupleHeader is 23).
VERSION_HEADER_BYTES = 24


def row_size(data: Sequence[object]) -> int:
    """Accounted byte size of a row's values."""
    size = 0
    for value in data:
        if value is None:
            size += 1
        elif isinstance(value, (bool, int, float)):
            size += 8
        elif isinstance(value, str):
            size += len(value.encode("utf-8")) + 4
        elif isinstance(value, (bytes, bytearray)):
            size += len(value) + 4
        else:
            size += 16  # opaque objects get a flat estimate
    return size


@dataclass(slots=True)
class TupleVersion:
    """One physically materialised tuple-version record (paper Figure 2.A).

    ``ts_invalidate`` is used only by two-point-invalidation stores (heap);
    SIAS versions leave it ``None`` and rely on successor existence
    (one-point invalidation).  Chain links are direction-specific:
    ``next_rid`` (old-to-new, heap) or ``prev_rid`` (new-to-old, SIAS).
    """

    vid: int
    data: Key
    ts_create: int
    ts_invalidate: int | None = None
    prev_rid: RecordID | None = None
    next_rid: RecordID | None = None
    is_tombstone: bool = False

    def accounted_size(self) -> int:
        return VERSION_HEADER_BYTES + row_size(self.data)


#: the payload types a run of version reads may contain (exact types: a
#: subclass goes through the checked per-row path, which accepts it)
_ONLY_VERSIONS = frozenset({TupleVersion})


def _read_run(page: SlottedPage, slots: list[int],
              out: list[TupleVersion]) -> bool:
    """Append the versions at ``slots`` of ``page`` to ``out``; False,
    appending nothing, if a slot is off the page, a hole or not a
    version."""
    try:
        got = page.read_many(slots)
    except SlotNotFoundError:
        return False
    if not set(map(type, got)) <= _ONLY_VERSIONS:
        return False
    out += cast("tuple[TupleVersion, ...]", got)
    return True


#: one tuple's history, oldest version first (:meth:`VersionStore.chains`)
Chain = list[tuple[RecordID, TupleVersion]]


def aborted_run(chain: Chain, log: "CommitLog") -> bool:
    """Did every version of ``chain`` abort?  Such a run (an orphan an
    update stepped past, or an aborted insert) holds no row: only vacuum
    has use for it."""
    return all(log.is_aborted(version.ts_create) for _rid, version in chain)


@dataclass
class VacuumResult:
    """Outcome of one vacuum pass (:meth:`VersionStore.vacuum`)."""

    versions_removed: int = 0
    pages_freed: int = 0
    #: versions gone from every chain: index entries naming them go too
    removed_rids: list[RecordID] = field(default_factory=list)
    #: vids none of whose chains kept a version
    dropped_vids: list[int] = field(default_factory=list)


class VersionStore(ABC):
    """Interface of a base table storing tuple-versions.

    Every storage-layout decision lives behind it: how an index candidate
    reaches its chain (:meth:`resolve`), what an index-only hit's recordID
    names (:meth:`fetch_visible`), which history the store holds
    (:meth:`chains`, :meth:`adopt_chain`), whether a write may go ahead
    (:meth:`_first_updater_wins`), and what a write does to index entries
    (:meth:`is_hot`).

    The store keeps the table's one VID map (paper §3.5), ``_entry``: vid
    → the rid its chain is entered at (SIAS: the newest version; heap:
    the chain root; delta: the main row).  Each write and vacuum pass
    keeps it current, and a logical index resolves its VIDs through it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._next_vid = 1
        self._entry: dict[int, RecordID] = {}
        #: the clock map writes and VID resolves charge
        #: ``indirection_lookup``: a private one until the table has a
        #: logical index (:meth:`charge_vid_map`)
        self._vid_clock = SimClock()

    @abstractmethod
    def insert(self, txn: Transaction, data: Key) -> tuple[int, RecordID]:
        """Insert a new logical tuple; returns (vid, rid of initial version)."""

    @abstractmethod
    def update(self, txn: Transaction, rid: RecordID, data: Key,
               allow_hot: bool = True) -> RecordID:
        """Create a successor version of the version at ``rid``.

        ``allow_hot=False`` says an indexed column changed, so the
        successor need not stay reachable from ``rid``'s index entries (a
        heap then places it cold: PostgreSQL's HOT eligibility rule).
        """

    def is_hot(self, old_rid: RecordID, new_rid: RecordID) -> bool:
        """Do index entries naming ``old_rid`` still reach its successor
        at ``new_rid``, so a version-oblivious index needs no new entry?
        The one HOT rule, answered from what the update did — live and
        when an index built late replays the chain.  True for an update
        in place."""
        return old_rid == new_rid

    @abstractmethod
    def delete(self, txn: Transaction, rid: RecordID) -> RecordID:
        """Logically delete the tuple whose current version is at ``rid``.

        Returns the rid of the tombstone version (SIAS) or of the invalidated
        version itself (heap, which has no physical tombstone record).
        """

    def _first_updater_wins(self, txn: Transaction, rid: RecordID,
                            version: TupleVersion) -> None:
        """The one write rule (snapshot isolation's first updater wins,
        Larson et al.): a write naming ``version`` at ``rid`` goes ahead
        only if no newer version survives (one whose writer aborted does
        not count) and ``txn`` sees ``version``, its own write or one
        committed before its snapshot.  Otherwise it raises
        :class:`WriteConflictError`; only then does a tombstone raise
        :class:`TupleNotFoundError`."""
        log = txn._manager.commit_log
        writer = self._newer_writer(rid, version, log)
        if writer is not None:
            raise WriteConflictError(
                f"{self.name}: vid={version.vid} at {rid} was superseded "
                f"by txn {writer}")
        if not txn.snapshot.sees_ts(version.ts_create, log):
            raise WriteConflictError(
                f"{self.name}: vid={version.vid} at {rid} was written by "
                f"txn {version.ts_create}, which txn {txn.id} does not see")
        if version.is_tombstone:
            raise TupleNotFoundError(f"{self.name}: {rid} is deleted")

    @abstractmethod
    def _newer_writer(self, rid: RecordID, version: TupleVersion,
                      log: "CommitLog") -> int | None:
        """Who wrote the newest version above ``version`` (at ``rid``)
        whose writer did not abort?  None: no newer version survives."""

    def _map_vid(self, vid: int, rid: RecordID) -> None:
        """Point ``vid``'s map entry at ``rid``: one charged map write."""
        self._entry[vid] = rid
        self._charge_vids(1)

    def _charge_vids(self, count: int) -> None:
        """``count`` map operations, one clock advance each: the clock
        sums exactly what per-operation charges sum."""
        clock = self._vid_clock
        for _ in range(count):
            clock.advance(clock.cost.indirection_lookup)

    def _vid_start(self, vid: int) -> RecordID | None:
        """A VID's chain start, one charged map read (None: dropped)."""
        self._charge_vids(1)
        return self._entry.get(vid)

    def charge_vid_map(self, clock: SimClock, chains: int) -> None:
        """Charge map writes and VID resolves to ``clock`` from now on: a
        logical index reads the map.  The first call pays one write per
        listed chain (``chains``), what building the map costs; the map
        itself is kept all along."""
        if clock is not self._vid_clock:
            self._vid_clock = clock
            self._charge_vids(chains)

    @abstractmethod
    def fetch(self, rid: RecordID) -> TupleVersion:
        """Fetch one version record (charges buffered page I/O)."""

    def fetch_many(self, rids: Sequence[RecordID]) -> list[TupleVersion]:
        """:meth:`fetch` for every rid, in ``rids`` order, asking for each
        distinct page once, in first-occurrence order.

        The page — not the row — is what a buffered read costs (one pool
        request, ``page_cpu``, one replacement-policy touch), so a scan
        hands over a whole chunk of hits and pays per page its rows live
        on.  Rows are read a *run* at a time — each stretch of
        consecutive rids on one page is one :meth:`SlottedPage.read_many`
        and one type pass, done before the next page is asked for.  A bad
        rid (a slot off the page, a hole, a payload that is not a version)
        sends the call through the per-row :meth:`_read_version` loop over
        the pages already fetched, which raises the same
        :class:`TupleNotFoundError` as :meth:`fetch` having asked for the
        same pages.
        """
        pages: dict[int, SlottedPage] = {}
        out: list[TupleVersion] = []
        run: list[int] = []
        current: int | None = None
        page: SlottedPage | None = None
        for page_no, slot in rids:
            if page_no != current:
                if page is not None and not _read_run(page, run, out):
                    return self._fetch_each(rids, pages)
                run = []
                current = page_no
                page = pages.get(page_no)
                if page is None:
                    page = pages[page_no] = self._page(page_no)
            run.append(slot)
        if page is not None and not _read_run(page, run, out):
            return self._fetch_each(rids, pages)
        return out

    def _fetch_each(self, rids: Sequence[RecordID],
                    pages: dict[int, SlottedPage]) -> list[TupleVersion]:
        """:meth:`fetch_many`'s checked path: one :meth:`_read_version`
        per rid over the call's page memo."""
        read = self._read_version
        out: list[TupleVersion] = []
        for rid in rids:
            page = pages.get(rid.page)
            if page is None:
                page = pages[rid.page] = self._page(rid.page)
            out.append(read(page, rid))
        return out

    @abstractmethod
    def _page(self, page_no: int) -> SlottedPage:
        """The page holding versions (one buffered page request, or an
        unflushed tail page)."""

    def _read_version(self, page: SlottedPage,
                      rid: RecordID) -> TupleVersion:
        """The version at ``rid`` on its already-fetched ``page``."""
        try:
            payload = page.read(rid.slot)
        except SlotNotFoundError as exc:  # uniform not-found error
            raise TupleNotFoundError(f"{self.name}: bad rid {rid}") from exc
        if not isinstance(payload, TupleVersion):
            raise TupleNotFoundError(f"{self.name}: {rid} is not a version")
        return payload

    @abstractmethod
    def visible_version(self, txn: Transaction,
                        rid: RecordID) -> tuple[RecordID, TupleVersion] | None:
        """Resolve the version of ``rid``'s chain visible to ``txn``.

        This is the *base-table visibility check* the paper's motivation
        section prices at one random I/O per fetched version.
        """

    def fetch_visible(self, txn: Transaction, rids: list[RecordID]
                      ) -> tuple[list[RecordID], list[TupleVersion]]:
        """The versions behind a chunk of index-only hits, whose recordIDs
        name exactly the versions ``txn`` sees: one buffered request per
        distinct table page (:meth:`fetch_many`)."""
        return rids, self.fetch_many(rids)

    def resolve(self, txn: Transaction,
                candidates: Iterable[RecordID | int],
                vids: bool = False
                ) -> list[tuple[RecordID, TupleVersion]]:
        """Base-table visibility check over version-oblivious index
        candidates (recordIDs, or with ``vids`` VIDs through the map):
        each tuple's version visible to ``txn``, once, in candidate order.

        A candidate names a tuple and a chain start, and
        :meth:`visible_version` walks the chain from there — the random
        reads MV-PBT's index-only check avoids.  Each tuple is walked once,
        a stale candidate is skipped, and a tuple two chain starts reach
        (a heap chain after a cold update) is returned once.
        """
        tuple_of: Callable[[Any], Hashable | None] = self._candidate_tuple
        start_of: Callable[[Any], RecordID | None] = self._chain_start
        if vids:  # a VID is its own tuple
            tuple_of, start_of = int, self._vid_start
        walked: set[Hashable] = set()
        vids: set[int] = set()
        visible: list[tuple[RecordID, TupleVersion]] = []
        for ref in candidates:
            tup = tuple_of(ref)
            if tup is None or tup in walked:
                continue
            walked.add(tup)
            start = start_of(tup)
            if start is None:
                continue
            resolved = self.visible_version(txn, start)
            if resolved is None or resolved[1].vid in vids:
                continue
            vids.add(resolved[1].vid)
            visible.append(resolved)
        return visible

    def _candidate_tuple(self, rid: RecordID) -> Hashable | None:
        """A candidate's tuple (None: no such version); here its rid."""
        return rid

    def _chain_start(self, tup: Any) -> RecordID | None:
        """A tuple's chain start (None: chain gone); here the rid."""
        return cast(RecordID, tup)

    @abstractmethod
    def scan_versions(self) -> Iterator[tuple[RecordID, TupleVersion]]:
        """All stored versions (sequential scan, charges page I/O)."""

    def scan_visible(self, txn: Transaction) -> Iterator[tuple[RecordID, Key]]:
        """Visible rows for ``txn`` via full scan (analytic table scans)."""
        raise NotImplementedError

    @abstractmethod
    def chains(self) -> list[Chain]:
        """Every stored tuple's history, oldest version first, a deletion
        listed as a closing tombstone: what an index built late, vacuum
        and a rebalance start from (charges the reads)."""

    def adopt_chain(self, chain: Chain
                    ) -> tuple[int, dict[RecordID, RecordID]]:
        """Copy in a chain another store of this kind listed, under a
        fresh vid (DESIGN.md §16.4): ``(vid, {old rid: new rid})``."""
        raise NotImplementedError(f"{self.name}: this store adopts no chains")

    def vacuum(self, manager: "TransactionManager") -> VacuumResult:
        """Tuple-level GC (paper §3.4): the one rule for which versions
        are dead, over :meth:`chains`.

        An aborted version is dead at once; a version is dead once a newer
        one committed below ``manager``'s cutoff, which no snapshot, active
        or future, sees past (Larson et al.).  So a chain keeps everything
        from its newest version committed below the cutoff, and nothing
        when that version is a tombstone or no version is left.  The store
        then reclaims what its chain lost (:meth:`_reclaim`) and frees the
        pages left unused (:meth:`_free_pages`); a vid no chain kept
        leaves the map.  The map's drops, then its moves, are charged
        after the pass.
        """
        log = manager.commit_log
        cutoff = manager.cutoff_txid()
        result = VacuumResult()
        survivors: list[Chain] = []
        emptied: list[int] = []
        moved = 0
        for chain in self.chains():
            live = [pair for pair in chain
                    if not log.is_aborted(pair[1].ts_create)]
            kept = live
            for at in range(len(live) - 1, -1, -1):
                ts = live[at][1].ts_create
                if ts < cutoff and log.is_committed(ts):
                    kept = [] if live[at][1].is_tombstone else live[at:]
                    break
            if len(kept) < len(chain) and self._reclaim(chain, kept,
                                                        result, log):
                moved += 1
            if kept:
                survivors.append(kept)
            else:
                emptied.append(chain[0][1].vid)
        kept_vids = {kept[0][1].vid for kept in survivors}
        result.dropped_vids = [vid for vid in dict.fromkeys(emptied)
                               if vid not in kept_vids]
        self._free_pages(survivors, result)
        for vid in result.dropped_vids:
            del self._entry[vid]
        self._charge_vids(len(result.dropped_vids) + moved)
        return result

    @abstractmethod
    def _reclaim(self, chain: Chain, kept: Chain, result: VacuumResult,
                 log: "CommitLog") -> bool:
        """Reclaim the versions of ``chain`` not in ``kept`` (a suffix of
        its versions that did not abort; empty: the whole chain goes), and
        book them in ``result``.  True if the chain's map entry moved."""

    def _free_pages(self, survivors: list[Chain],
                    result: VacuumResult) -> None:
        """Free the pages the reclaim left without a live version, given
        every chain's survivors; slotted heap pages stay allocated."""

    def flush_tail(self) -> int:
        """Force unflushed tail pages to storage; returns pages flushed."""
        return 0


class PagedStore(VersionStore):
    """A store whose versions sit on buffered slotted pages of ``file``
    (the heap; the delta store's main rows), each placed first-fit on a
    page believed to have room.  A tuple's first version stays where it
    is placed, so its rid is the tuple's map entry."""

    file: "PageFile"
    pool: "BufferPool"
    #: pages believed to have free space
    _open_pages: list[int]

    def insert(self, txn: Transaction, data: Key) -> tuple[int, RecordID]:
        txn.require_active()
        vid = self._next_vid
        self._next_vid += 1
        rid = self._place(TupleVersion(vid=vid, data=tuple(data),
                                       ts_create=txn.id))
        self._map_vid(vid, rid)
        txn.writes += 1
        return vid, rid

    def fetch(self, rid: RecordID) -> TupleVersion:
        return self._read_version(self._page(rid.page), rid)

    def scan_versions(self) -> Iterator[tuple[RecordID, TupleVersion]]:
        for page_no in range(self.file.max_page_no):
            if not self.file.has_contents(page_no) and not self.pool.contains(
                    self.file, page_no):
                continue
            for slot, payload in self._page(page_no).items():
                if isinstance(payload, TupleVersion):
                    yield RecordID(page_no, slot), payload

    def note_free_space(self, page_no: int) -> None:
        """Vacuum reports a page with reclaimed space."""
        if page_no not in self._open_pages:
            self._open_pages.append(page_no)

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
