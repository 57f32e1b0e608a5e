"""Common tuple-version model and the version-store interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Hashable, Iterable,
                    Iterator, Sequence, cast)

from ..errors import SlotNotFoundError
from ..storage.page import SlottedPage
from ..storage.recordid import RecordID
from ..txn.transaction import Transaction
from ..types import Key

if TYPE_CHECKING:
    from ..txn.manager import TransactionManager
    from .indirection import IndirectionLayer
    from .vacuum import VacuumResult

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


class VersionStore(ABC):
    """Interface of a base table storing tuple-versions.

    Every storage-layout decision lives behind it: how an index candidate
    reaches its chain (:meth:`resolve`), what an index-only hit's recordID
    names (:meth:`fetch_visible`), which history the store holds
    (:meth:`chains`, :meth:`adopt_chain`), and what a write does to index
    entries (:meth:`is_hot`, :attr:`entry_moves`).
    """

    name: str
    #: a chain's entry point is its newest version (new-to-old order), so
    #: a logical reference moves with every update and delete; otherwise
    #: it names a version that stays put
    entry_moves = False

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
        True for an update in place."""
        return old_rid == new_rid

    @abstractmethod
    def delete(self, txn: Transaction, rid: RecordID) -> RecordID:
        """Logically delete the tuple whose current version is at ``rid``.

        Returns the rid of the tombstone version (SIAS) or of the invalidated
        version itself (heap, which has no physical tombstone record).
        """

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

    @abstractmethod
    def _read_version(self, page: SlottedPage,
                      rid: RecordID) -> TupleVersion:
        """The version at ``rid`` on its already-fetched ``page``."""

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
                indirection: "IndirectionLayer | None" = None
                ) -> list[tuple[RecordID, TupleVersion]]:
        """Base-table visibility check over version-oblivious index
        candidates (recordIDs, or VIDs through ``indirection``): each
        tuple's version visible to ``txn``, once, in candidate order.

        A candidate names a tuple and a chain start, and
        :meth:`visible_version` walks the chain from there — the random
        reads MV-PBT's index-only check avoids.  Each tuple is walked once,
        a stale candidate is skipped, and a tuple two chain starts reach
        (a heap chain after a cold update) is returned once.
        """
        tuple_of: Callable[[Any], Hashable | None] = self._candidate_tuple
        start_of: Callable[[Any], RecordID | None] = self._chain_start
        if indirection is not None:  # a VID is its own tuple
            tuple_of, start_of = int, indirection.try_resolve
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
        listed as a closing tombstone: what an index built late, a new
        indirection layer and a rebalance start from (charges the reads)."""

    def adopt_chain(self, chain: Chain
                    ) -> tuple[int, dict[RecordID, RecordID]]:
        """Copy in a chain another store of this kind listed, under a
        fresh vid (DESIGN.md §16.4): ``(vid, {old rid: new rid})``."""
        raise NotImplementedError(f"{self.name}: this store adopts no chains")

    @abstractmethod
    def vacuum(self, manager: "TransactionManager") -> "VacuumResult":
        """Tuple-level GC below ``manager``'s cutoff (:mod:`.vacuum`)."""

    def flush_tail(self) -> int:
        """Force unflushed tail pages to storage; returns pages flushed."""
        return 0
