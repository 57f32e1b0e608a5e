"""Common interface of version-oblivious indexes.

A version-oblivious index (B⁺-Tree, PBT, LSM used as secondary index) maps
key values to *references* and knows nothing about versions: every committed
tuple-version needs an entry, lookups return **candidates**, and the executor
must resolve visibility against the base table (the costly path motivating
the paper).

References are either physical :class:`~repro.storage.recordid.RecordID`
values or logical VIDs (ints) resolved through the table store's VID map.
:class:`Index` answers the engine's maintenance calls, the ones
:class:`~repro.core.tree.MVPBT` answers with records, for every oblivious
kind: the one place that knows which reference an entry holds and when a
write needs no new entry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Union

from ..storage.recordid import RecordID
from ..types import Key

if TYPE_CHECKING:
    from ..table.base import VersionStore
    from ..txn.transaction import Transaction, Writer

Ref = Union[RecordID, int]

#: accounted bytes of one reference in an index entry
REF_BYTES = 8
#: accounted per-entry overhead (line pointer / alignment)
ENTRY_OVERHEAD_BYTES = 4


@dataclass
class IndexStats:
    """Maintenance and lookup counters of one index."""

    inserts: int = 0
    removes: int = 0
    searches: int = 0
    scans: int = 0
    entries_returned: int = 0


class Index(ABC):
    """Version-oblivious ordered secondary index."""

    name: str
    stats: IndexStats
    #: the table's store: it says whether an update left the entries of
    #: the predecessor reaching the successor (set at creation)
    store: "VersionStore"
    #: entries hold VIDs, not recordIDs (fixed at creation: the reference
    #: mode)
    indirection = False

    def insert(self, txn: "Writer", key: Key, rid_new: RecordID,
               vid: int) -> None:
        """A first version, or a new key (:meth:`update_key`): an entry."""
        self.insert_entry(key, vid if self.indirection else rid_new)

    def update_nonkey(self, txn: "Writer", key: Key, rid_new: RecordID,
                      rid_old: RecordID, vid: int) -> None:
        """A VID entry still names the tuple; a recordID entry needs a
        successor entry unless the store says the update kept the old
        one reaching it (HOT, in place)."""
        if not self.indirection and not self.store.is_hot(rid_old, rid_new):
            self.insert_entry(key, rid_new)

    def update_key(self, txn: "Writer", old_key: Key, new_key: Key,
                   rid_new: RecordID, rid_old: RecordID, vid: int) -> None:
        """An entry under ``new_key``, unless the reference did not move
        (a VID, or a row updated in place) and one already holds it: a
        key's round trip adds nothing."""
        ref = vid if self.indirection else rid_new
        if ((self.indirection or rid_new == rid_old)
                and ref in self.search(new_key)):
            return
        self.insert_entry(new_key, ref)

    def delete(self, txn: "Writer", key: Key, rid_old: RecordID,
               vid: int) -> None:
        """No entry: the base table answers visibility."""

    def point_candidates(self, txn: "Transaction", key: Key) -> list[Ref]:
        return self.search(key)

    def range_candidates(self, txn: "Transaction", lo: Key | None,
                         hi: Key | None, *, lo_incl: bool = True,
                         hi_incl: bool = True) -> list[Ref]:
        return [ref for _key, ref in self.range_scan(
            lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)]

    def purge(self, removed_rids: set[RecordID],
              dropped_vids: set[int]) -> None:
        """After a table vacuum, drop the entries naming a removed
        recordID or a dropped chain's VID, in one pass (PostgreSQL's
        ``ambulkdelete``)."""
        dead: set[RecordID] | set[int] = (
            dropped_vids if self.indirection else removed_rids)
        if dead:
            for key, ref in list(self.range_scan(None, None)):
                if ref in dead:
                    self.remove_entry(key, ref)

    # ------------------------------------------------------- entry storage

    @abstractmethod
    def insert_entry(self, key: Key, ref: Ref) -> None:
        """Add one entry (duplicates of the same key are allowed)."""

    @abstractmethod
    def remove_entry(self, key: Key, ref: Ref) -> bool:
        """Remove one entry (index-level GC); returns whether it existed."""

    @abstractmethod
    def search(self, key: Key) -> list[Ref]:
        """All candidate references whose entry key equals ``key``."""

    @abstractmethod
    def range_scan(self, lo: Key | None, hi: Key | None,
                   *, lo_incl: bool = True,
                   hi_incl: bool = True) -> Iterator[tuple[Key, Ref]]:
        """Candidate (key, ref) pairs with keys in the given range, sorted."""

    @abstractmethod
    def entry_count(self) -> int:
        """Total number of live entries (all versions' entries)."""


class _Top:
    """Sentinel comparing greater than every key element.

    Used to build exclusive upper bounds for prefix scans:
    ``hi = prefix + (TOP,)`` ranges over every key extending ``prefix``.
    Never stored or encoded — bounds only.
    """

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return not isinstance(other, _Top)

    def __le__(self, other: object) -> bool:
        return isinstance(other, _Top)

    def __ge__(self, other: object) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Top)

    def __hash__(self) -> int:
        return hash("_Top")

    def __repr__(self) -> str:
        return "TOP"


#: upper-bound sentinel for prefix scans
TOP = _Top()


def key_in_range(key: Key, lo: Key | None, hi: Key | None,
                 lo_incl: bool, hi_incl: bool) -> bool:
    """Range-predicate test shared by the scan implementations."""
    if lo is not None:
        if key < lo or (not lo_incl and key == lo):
            return False
    if hi is not None:
        if key > hi or (not hi_incl and key == hi):
            return False
    return True
