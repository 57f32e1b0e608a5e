"""Unit tests for slotted pages."""

import pytest

from repro.errors import PageOverflowError, SlotNotFoundError
from repro.storage.page import PAGE_HEADER_BYTES, SLOT_OVERHEAD_BYTES, SlottedPage


@pytest.fixture
def page():
    return SlottedPage(page_no=0, capacity=1024)


class TestInsert:
    def test_insert_returns_sequential_slots(self, page):
        assert page.insert("a", 10) == 0
        assert page.insert("b", 10) == 1

    def test_space_accounting(self, page):
        page.insert("a", 100)
        assert page.used_bytes == PAGE_HEADER_BYTES + 100 + SLOT_OVERHEAD_BYTES

    def test_overflow_rejected(self, page):
        with pytest.raises(PageOverflowError):
            page.insert("big", 2000)

    def test_fits_accounts_for_slot_overhead(self, page):
        exact = page.free_space - SLOT_OVERHEAD_BYTES
        assert page.fits(exact)
        assert not page.fits(exact + 1)

    def test_insert_marks_dirty(self, page):
        assert not page.dirty
        page.insert("a", 10)
        assert page.dirty


class TestReadUpdateDelete:
    def test_read_returns_payload(self, page):
        slot = page.insert({"k": 1}, 10)
        assert page.read(slot) == {"k": 1}

    def test_read_bad_slot(self, page):
        with pytest.raises(SlotNotFoundError):
            page.read(0)

    def test_update_in_place(self, page):
        slot = page.insert("old", 10)
        page.update(slot, "new", 12)
        assert page.read(slot) == "new"

    def test_update_space_delta(self, page):
        slot = page.insert("old", 10)
        used = page.used_bytes
        page.update(slot, "new", 25)
        assert page.used_bytes == used + 15

    def test_update_overflow_rejected(self, page):
        slot = page.insert("x", 10)
        with pytest.raises(PageOverflowError):
            page.update(slot, "huge", 5000)

    def test_delete_frees_space_keeps_slot_numbering(self, page):
        s0 = page.insert("a", 10)
        s1 = page.insert("b", 10)
        page.delete(s0)
        with pytest.raises(SlotNotFoundError):
            page.read(s0)
        assert page.read(s1) == "b"

    def test_delete_then_read_raises(self, page):
        slot = page.insert("a", 10)
        page.delete(slot)
        with pytest.raises(SlotNotFoundError):
            page.read(slot)


class TestCompactAndIteration:
    def test_items_skips_holes(self, page):
        page.insert("a", 10)
        s1 = page.insert("b", 10)
        page.insert("c", 10)
        page.delete(s1)
        assert [p for _s, p in page.items()] == ["a", "c"]

    def test_compact_reclaims_trailing_overhead(self, page):
        page.insert("a", 10)
        s1 = page.insert("b", 10)
        s2 = page.insert("c", 10)
        page.delete(s2)
        page.delete(s1)
        reclaimed = page.compact()
        assert reclaimed == 2 * SLOT_OVERHEAD_BYTES
        assert page.slot_count == 1

    def test_compact_keeps_interior_holes(self, page):
        s0 = page.insert("a", 10)
        page.insert("b", 10)
        page.delete(s0)
        assert page.compact() == 0
        assert page.slot_count == 2
