"""Query execution: index scans with the two visibility paths.

The executor is where the paper's cost asymmetry lives:

* **MV-PBT** (index-only visibility): the index returns exactly the visible
  entries; base-table pages are touched only when the query needs non-index
  attributes — one buffered read per *result*, never per candidate.
* **Version-oblivious indexes** (B⁺-Tree, PBT, or MV-PBT with the ablation
  flag off): the index returns candidates — one per matching tuple-version —
  and every candidate must be resolved against the base table (random I/O),
  then rechecked against the predicate.

Either way a read materialises one :data:`Fetched` pair of parallel lists
and hands it out in one of two forms: **rows** (``version.data``) for
every statement that only returns data, and :class:`RowHit` handles only
for the hit-addressed DML paths that write through them (DESIGN.md §9.1).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ..core.records import ReferenceMode
from ..core.tree import SearchHit
from ..index.base import Ref, key_in_range
from ..storage.recordid import RecordID
from ..table.base import TupleVersion
from ..txn.transaction import Transaction
from .catalog import IndexInfo, TableInfo
from ..types import Key, Row

if TYPE_CHECKING:
    from .database import Database


class RowHit(NamedTuple):
    """One visible row as a handle for hit-addressed DML: the version's
    recordID and the version record."""

    rid: RecordID
    version: TupleVersion

    @property
    def row(self) -> Key:
        return self.version.data


#: what a read materialises, position by position: the recordIDs and the
#: versions found there (a handle pairs them, a row is a version's data)
Fetched = tuple[list[RecordID], list[TupleVersion]]

_rid_of = attrgetter("rid")
_data_of = attrgetter("data")


class ScanLeg(NamedTuple):
    """One shard's share of a planned range read: the bounds it is asked
    for.  A single node is shard 0."""

    shard: int
    lo: Key | None
    lo_incl: bool
    hi: Key | None
    hi_incl: bool


class ScanPlan(NamedTuple):
    """Which shards a range read asks, and how their answers combine:
    ``single-slot`` and ``single-node`` are one leg, ``scatter-merge`` is
    one leg per shard (shard order) merged on ``(index key, shard)``."""

    name: str
    legs: tuple[ScanLeg, ...]
    #: False for a version-oblivious index: no bounded cursor to slice
    index_only: bool

    @property
    def shards(self) -> list[int]:
        return sorted({leg.shard for leg in self.legs})


#: one leg's bounded pull: its hits and its resume key (None: exhausted)
IndexSlice = tuple[list[SearchHit], Key | None]


class Executor:
    """Executes index lookups, range scans and index-only aggregates."""

    def __init__(self, db: "Database") -> None:
        self.db = db

    # ------------------------------------------------------------- lookups

    def lookup(self, txn: Transaction, index_info: IndexInfo,
               key: Key) -> list[RowHit]:
        """Visible rows whose index key equals ``key``, as handles."""
        return _handles(self._lookup(txn, index_info, key))

    def lookup_rows(self, txn: Transaction, index_info: IndexInfo,
                    key: Key) -> list[Row]:
        """:meth:`lookup`'s rows, with no handle built."""
        return _rows(self._lookup(txn, index_info, key))

    def scan(self, txn: Transaction, index_info: IndexInfo,
             lo: Key | None, hi: Key | None, *,
             lo_incl: bool = True, hi_incl: bool = True) -> list[RowHit]:
        """Visible rows with index keys in the range, fetched from the
        table, as handles."""
        return _handles(self._scan(txn, index_info, lo, hi, lo_incl,
                                   hi_incl))

    def scan_rows(self, txn: Transaction, index_info: IndexInfo,
                  lo: Key | None, hi: Key | None, *,
                  lo_incl: bool = True, hi_incl: bool = True) -> list[Row]:
        """:meth:`scan`'s rows, with no handle built."""
        return _rows(self._scan(txn, index_info, lo, hi, lo_incl, hi_incl))

    def scan_stream(self, txn: Transaction, index_info: IndexInfo,
                    lo: Key | None, hi: Key | None, *, limit: int,
                    lo_incl: bool = True,
                    hi_incl: bool = True) -> Iterator[list[Row]]:
        """The first ``limit`` rows of the range in index-key order, as
        one chunk (a generator, so a consumer pays for it on ``next()``).

        On the MV-PBT index-only path the index cuts the result before
        any row is fetched, and the rows are fetched page-grouped (each
        table page asked for once).  Other index kinds cut the
        materialising scan.  A ``limit`` below one reads nothing.
        """
        if limit < 1:
            return
        if index_info.index_only:
            hits = index_info.mvpbt.scan_limit(txn, lo, limit, hi,
                                               lo_incl=lo_incl,
                                               hi_incl=hi_incl)
            if hits:
                yield self.fetch_rows(
                    txn, self.db.catalog.table(index_info.table), hits)
            return
        rows = self.scan_rows(txn, index_info, lo, hi,
                              lo_incl=lo_incl, hi_incl=hi_incl)
        del rows[limit:]
        if rows:
            yield rows

    def fetch_rows(self, txn: Transaction, table: TableInfo,
                   hits: Iterable[SearchHit]) -> list[Row]:
        """The rows of one chunk of index-only hits (:meth:`_fetch`) —
        fewer on delta storage, where a version may not reconstruct."""
        return _rows(self._fetch(txn, table, hits))

    def count(self, txn: Transaction, index_info: IndexInfo,
              lo: Key | None, hi: Key | None, *,
              lo_incl: bool = True, hi_incl: bool = True) -> int:
        """COUNT(*) over an index-key range.

        For a version-aware MV-PBT this is **index-only**: no base-table
        page is read (the paper's Figure 2 query), and the chunk stream
        is counted without materialising it.  Every other path must
        resolve candidates against the base table first.
        """
        if index_info.index_only:
            return sum(map(len, index_info.mvpbt.scan_chunks(
                txn, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)))
        return len(self._scan(txn, index_info, lo, hi, lo_incl, hi_incl)[0])

    def pull_slice(self, txn: Transaction, index_info: IndexInfo,
                   leg: ScanLeg, want: int
                   ) -> tuple[list[SearchHit], Key | None, int, int]:
        """One bounded index-only cursor run over ``leg``: ``(hits,
        resume, hits pulled, runs pulled)``.  ``resume`` is None when the
        leg is exhausted; otherwise every returned hit lies strictly below
        it and the leg continues at ``resume`` inclusive.  A run is
        ``want + 1`` hits with the trailing duplicate-key run trimmed off,
        so a key is never split between two pulls; a run that is ONE key
        throughout is re-pulled at double the size until it fits."""
        tree = index_info.mvpbt
        size, pulled, runs = want, 0, 0
        while True:
            hits = tree.scan_limit(txn, leg.lo, size + 1, leg.hi,
                                   lo_incl=leg.lo_incl, hi_incl=leg.hi_incl)
            pulled += len(hits)
            runs += 1
            if len(hits) <= size:
                return hits, None, pulled, runs
            resume = hits[-1].key
            keep = len(hits) - 1
            while keep and hits[keep - 1].key == resume:
                keep -= 1
            if keep:
                del hits[keep:]
                return hits, resume, pulled, runs
            size *= 2

    # ------------------------------------------------------------- internal

    def _lookup(self, txn: Transaction, index_info: IndexInfo,
                key: Key) -> Fetched:
        key = tuple(key)
        table = self.db.catalog.table(index_info.table)
        if index_info.index_only:
            return self._fetch(txn, table, index_info.mvpbt.search(txn, key))
        candidates = self._candidates_point(txn, index_info, key)
        positions = index_info.positions
        return _unzip([
            pair for pair in self._resolve(txn, table, index_info, candidates)
            if tuple(pair[1].data[p] for p in positions) == key])

    def _scan(self, txn: Transaction, index_info: IndexInfo,
              lo: Key | None, hi: Key | None, lo_incl: bool,
              hi_incl: bool) -> Fetched:
        table = self.db.catalog.table(index_info.table)
        if index_info.index_only:
            return self._fetch(txn, table, index_info.mvpbt.range_scan(
                txn, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl))
        candidates = self._candidates_range(txn, index_info, lo, hi,
                                            lo_incl, hi_incl)
        positions = index_info.positions

        def key_of(pair: tuple[RecordID, TupleVersion]) -> Key:
            return tuple(pair[1].data[p] for p in positions)

        kept = [pair for pair in
                self._resolve(txn, table, index_info, candidates)
                if key_in_range(key_of(pair), lo, hi, lo_incl, hi_incl)]
        # a stale candidate resolves to its tuple's visible version, whose
        # key may differ: put the rows in the index-key order every range
        # read promises (and the sharded LIMIT merge relies on)
        kept.sort(key=key_of)
        return _unzip(kept)

    def _fetch(self, txn: Transaction, table: TableInfo,
               hits: Iterable[SearchHit]) -> Fetched:
        """Materialise one chunk of index-only hits
        (:meth:`~repro.table.base.VersionStore.fetch_visible`)."""
        return table.store.fetch_visible(txn, list(map(_rid_of, hits)))

    def _candidates_point(self, txn: Transaction, index_info: IndexInfo,
                          key: Key) -> list[Ref]:
        if index_info.is_mvpbt:
            return [h.rid for h in index_info.mvpbt.search(txn, key)]
        return index_info.oblivious.search(key)

    def _candidates_range(self, txn: Transaction, index_info: IndexInfo,
                          lo: Key | None, hi: Key | None,
                          lo_incl: bool, hi_incl: bool) -> list[Ref]:
        if index_info.is_mvpbt:
            return [h.rid for h in index_info.mvpbt.range_scan(
                txn, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)]
        return [ref for _key, ref in index_info.oblivious.range_scan(
            lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)]

    def _resolve(self, txn: Transaction, table: TableInfo,
                 index_info: IndexInfo, candidates: list[Ref]
                 ) -> list[tuple[RecordID, TupleVersion]]:
        """Base-table visibility check over candidate references."""
        logical = index_info.reference is ReferenceMode.LOGICAL
        return table.store.resolve(
            txn, candidates, table.indirection if logical else None)


def _handles(fetched: Fetched) -> list[RowHit]:
    """The hit-addressed DML form: one :class:`RowHit` per row."""
    return list(map(RowHit, *fetched))


def _rows(fetched: Fetched) -> list[Row]:
    """The read-only form: the versions' data, no handle built."""
    return list(map(_data_of, fetched[1]))


def _unzip(pairs: list[tuple[RecordID, TupleVersion]]) -> Fetched:
    return [rid for rid, _version in pairs], [v for _rid, v in pairs]
