"""Unit tests for MV-PBT record types (paper §4.1)."""

from repro.core.records import (FLAG_GC, HAS_MATTER, MVPBTRecord,
                                RecordType, ReferenceMode, record_size)
from repro.storage.recordid import RecordID


def regular(key=(7,), ts=1, seq=0, vid=1, rid=RecordID(0, 0)):
    return MVPBTRecord(key, ts, seq, RecordType.REGULAR, vid, rid_new=rid)


class TestMatterSemantics:
    def test_regular_is_pure_matter(self):
        r = regular()
        assert HAS_MATTER[r.rtype] and not r.has_antimatter

    def test_replacement_is_both(self):
        r = MVPBTRecord((7,), 2, 1, RecordType.REPLACEMENT, 1,
                        rid_new=RecordID(0, 1), rid_old=RecordID(0, 0))
        assert HAS_MATTER[r.rtype] and r.has_antimatter

    def test_anti_is_pure_antimatter(self):
        r = MVPBTRecord((7,), 2, 1, RecordType.ANTI, 1,
                        rid_old=RecordID(0, 0))
        assert not HAS_MATTER[r.rtype] and r.has_antimatter

    def test_tombstone_is_pure_antimatter(self):
        r = MVPBTRecord((7,), 2, 1, RecordType.TOMBSTONE, 1,
                        rid_old=RecordID(0, 0))
        assert not HAS_MATTER[r.rtype] and r.has_antimatter

    def test_set_record_is_matter(self):
        r = MVPBTRecord((7,), 2, 1, RecordType.REGULAR_SET, -1,
                        set_entries=[(1, RecordID(0, 0), 1, 0)])
        assert HAS_MATTER[r.rtype] and not r.has_antimatter


class TestOrdering:
    def test_sort_key_primary_by_key(self):
        a = regular(key=(1,), ts=9)
        b = regular(key=(2,), ts=1)
        assert a.sort_key() < b.sort_key()

    def test_sort_key_secondary_newest_first(self):
        old = regular(ts=1, seq=0)
        new = regular(ts=2, seq=1)
        assert new.sort_key() < old.sort_key()

    def test_same_ts_ordered_by_seq_descending(self):
        first = regular(ts=5, seq=10)
        second = regular(ts=5, seq=11)
        assert second.sort_key() < first.sort_key()


class TestFlagsAndSize:
    def test_gc_flag(self):
        r = regular()
        assert not r.is_gc
        r.mark_gc()
        assert r.is_gc
        assert r.flags & FLAG_GC

    def test_mvpbt_records_larger_than_oblivious_entries(self):
        """Paper §5: version info makes MV-PBT records bigger."""
        from repro.index.pbt import _entry_size
        r = regular()
        assert record_size(r, ReferenceMode.PHYSICAL) > _entry_size((7,))

    def test_replacement_larger_than_regular(self):
        reg = regular()
        repl = MVPBTRecord((7,), 2, 1, RecordType.REPLACEMENT, 1,
                           rid_new=RecordID(0, 1), rid_old=RecordID(0, 0))
        assert (record_size(repl, ReferenceMode.PHYSICAL)
                > record_size(reg, ReferenceMode.PHYSICAL))

    def test_logical_mode_adds_vid_bytes(self):
        r = regular()
        assert (record_size(r, ReferenceMode.LOGICAL)
                > record_size(r, ReferenceMode.PHYSICAL))

    def test_set_record_smaller_than_individual_records(self):
        """Reconciliation's point: one key for n entries (§4.7)."""
        singles = [regular(ts=i, seq=i, vid=i, rid=RecordID(0, i))
                   for i in range(10)]
        merged = MVPBTRecord((7,), 9, 9, RecordType.REGULAR_SET, -1,
                             set_entries=[(r.vid, r.rid_new, r.ts, r.seq)
                                          for r in singles])
        total_single = sum(record_size(r, ReferenceMode.PHYSICAL)
                           for r in singles)
        assert record_size(merged, ReferenceMode.PHYSICAL) < total_single

    def test_payload_accounted(self):
        bare = regular()
        with_payload = MVPBTRecord((7,), 1, 0, RecordType.REGULAR, 1,
                                   rid_new=RecordID(0, 0), payload="x" * 100)
        assert (record_size(with_payload, ReferenceMode.PHYSICAL)
                >= record_size(bare, ReferenceMode.PHYSICAL) + 100)
