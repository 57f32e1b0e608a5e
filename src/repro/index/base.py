"""Common interface of version-oblivious indexes.

A version-oblivious index (B⁺-Tree, PBT, LSM used as secondary index) maps
key values to *references* and knows nothing about versions: every committed
tuple-version needs an entry, lookups return **candidates**, and the executor
must resolve visibility against the base table (the costly path motivating
the paper).

References are either physical :class:`~repro.storage.recordid.RecordID`
values or logical VIDs (ints) resolved through an indirection layer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Union

from ..storage.recordid import RecordID
from ..types import Key

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
