"""Common tuple-version model and the version-store interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence, cast

from ..errors import SlotNotFoundError
from ..storage.page import SlottedPage
from ..storage.recordid import RecordID
from ..txn.transaction import Transaction
from ..types import Key

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


class VersionStore(ABC):
    """Interface of a base table storing tuple-versions."""

    @abstractmethod
    def insert(self, txn: Transaction, data: Key) -> tuple[int, RecordID]:
        """Insert a new logical tuple; returns (vid, rid of initial version)."""

    @abstractmethod
    def update(self, txn: Transaction, rid: RecordID,
               data: Key) -> RecordID:
        """Create a successor version of the version at ``rid``."""

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

    @abstractmethod
    def scan_versions(self) -> Iterator[tuple[RecordID, TupleVersion]]:
        """All stored versions (sequential scan, charges page I/O)."""

    def scan_visible(self, txn: Transaction) -> Iterator[tuple[RecordID, Key]]:
        """Visible rows for ``txn`` via full scan (analytic table scans)."""
        raise NotImplementedError
