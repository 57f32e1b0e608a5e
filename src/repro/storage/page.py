"""Slotted pages.

A :class:`SlottedPage` is the in-memory representation of one fixed-size
database page holding variable-length records addressed by slot number —
the classic PostgreSQL heap-page layout.  Payloads are Python objects; each
carries its *accounted* byte size (as produced by the record codecs), so
free-space arithmetic matches what a byte-serialised page would do without
paying CPython serialisation costs on every access.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from ..errors import PageOverflowError, SlotNotFoundError

#: Accounted page-header bytes (mirrors PostgreSQL's PageHeaderData).
PAGE_HEADER_BYTES = 24
#: Accounted per-slot line-pointer bytes.
SLOT_OVERHEAD_BYTES = 4


class SlottedPage:
    """One page of variable-length records with stable slot numbers.

    Deleted slots leave a hole (``None``) so that surviving RecordIDs remain
    valid; :meth:`compact` reclaims holes when the caller knows no references
    remain (vacuum).
    """

    __slots__ = ("page_no", "capacity", "_payloads", "_sizes", "used_bytes",
                 "dirty", "has_garbage")

    def __init__(self, page_no: int, capacity: int) -> None:
        self.page_no = page_no
        self.capacity = capacity
        self._payloads: list[object | None] = []
        self._sizes: list[int] = []
        self.used_bytes = PAGE_HEADER_BYTES
        self.dirty = False
        #: page-header flag used by MV-PBT cooperative GC (paper §4.6).
        self.has_garbage = False

    # ----------------------------------------------------------------- space

    @property
    def free_space(self) -> int:
        return self.capacity - self.used_bytes

    def fits(self, nbytes: int) -> bool:
        return nbytes + SLOT_OVERHEAD_BYTES <= self.free_space

    @property
    def slot_count(self) -> int:
        return len(self._payloads)

    # ------------------------------------------------------------ operations

    def insert(self, payload: object, nbytes: int) -> int:
        """Store ``payload`` (accounted as ``nbytes``) and return its slot."""
        if not self.fits(nbytes):
            raise PageOverflowError(
                f"page {self.page_no}: {nbytes}B does not fit "
                f"({self.free_space}B free)")
        self._payloads.append(payload)
        self._sizes.append(nbytes)
        self.used_bytes += nbytes + SLOT_OVERHEAD_BYTES
        self.dirty = True
        return len(self._payloads) - 1

    def read(self, slot: int) -> object:
        payload = self._payload_at(slot)
        return payload

    def read_many(self, slots: Sequence[int]) -> tuple[object | None, ...]:
        """The payloads at a non-empty run of ``slots``, in order, with no
        per-slot check: a hole reads ``None``, so a caller validates the
        result (or falls back to :meth:`read`, which names the bad slot).
        Any slot outside the page raises :class:`SlotNotFoundError` for
        the whole run."""
        if min(slots) < 0:
            raise SlotNotFoundError(f"page {self.page_no}: negative slot")
        try:
            got = itemgetter(*slots)(self._payloads)
        except IndexError:
            raise SlotNotFoundError(
                f"page {self.page_no}: slot past the last") from None
        return got if len(slots) > 1 else (got,)

    def update(self, slot: int, payload: object, nbytes: int) -> None:
        """Replace slot contents in place; the new payload must fit."""
        old_size = self._size_at(slot)
        if nbytes > old_size and (nbytes - old_size) > self.free_space:
            raise PageOverflowError(
                f"page {self.page_no} slot {slot}: in-place update of "
                f"{nbytes}B does not fit")
        self._payloads[slot] = payload
        self._sizes[slot] = nbytes
        self.used_bytes += nbytes - old_size
        self.dirty = True

    def delete(self, slot: int) -> None:
        """Remove a record, leaving a hole (slot numbers stay stable)."""
        size = self._size_at(slot)
        self._payloads[slot] = None
        self._sizes[slot] = 0
        self.used_bytes -= size
        self.dirty = True

    def compact(self) -> int:
        """Drop trailing holes' slot overhead; returns bytes reclaimed.

        Interior holes keep their line pointers (references may use slot
        numbers); only fully reclaimed trailing slots free their overhead —
        enough fidelity for vacuum-style space accounting.
        """
        reclaimed = 0
        while self._payloads and self._payloads[-1] is None:
            self._payloads.pop()
            self._sizes.pop()
            self.used_bytes -= SLOT_OVERHEAD_BYTES
            reclaimed += SLOT_OVERHEAD_BYTES
        if reclaimed:
            self.dirty = True
        return reclaimed

    # -------------------------------------------------------------- iteration

    def items(self) -> Iterator[tuple[int, object]]:
        """(slot, payload) pairs for live slots."""
        for slot, payload in enumerate(self._payloads):
            if payload is not None:
                yield slot, payload

    # --------------------------------------------------------------- internal

    def _payload_at(self, slot: int) -> object:
        if not 0 <= slot < len(self._payloads):
            raise SlotNotFoundError(f"page {self.page_no}: no slot {slot}")
        payload = self._payloads[slot]
        if payload is None:
            raise SlotNotFoundError(f"page {self.page_no}: slot {slot} deleted")
        return payload

    def _size_at(self, slot: int) -> int:
        self._payload_at(slot)  # raises on bad slot
        return self._sizes[slot]

    def __repr__(self) -> str:
        return (f"SlottedPage(no={self.page_no}, slots={self.slot_count}, "
                f"used={self.used_bytes}/{self.capacity})")
