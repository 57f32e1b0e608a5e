"""Unit tests for MV-PBT memory partitions (§4.3 ordering, leaf organisation)."""

import pytest

from repro.core.partition import MemoryPartition
from repro.core.records import MVPBTRecord, RecordType, ReferenceMode
from repro.storage.recordid import RecordID


@pytest.fixture
def part():
    return MemoryPartition(0, ReferenceMode.PHYSICAL, page_size=8192)


def rec(key, ts, seq, rtype=RecordType.REGULAR, vid=1):
    return MVPBTRecord((key,), ts, seq, rtype, vid,
                       rid_new=RecordID(0, seq) if rtype in
                       (RecordType.REGULAR, RecordType.REPLACEMENT) else None,
                       rid_old=RecordID(0, seq - 1) if rtype in
                       (RecordType.REPLACEMENT, RecordType.ANTI,
                        RecordType.TOMBSTONE) else None)


class TestOrdering:
    def test_records_sorted_by_key(self, part):
        for k in (5, 1, 3):
            part.insert(rec(k, 1, k))
        assert [r.key[0] for r in part.iter_records()] == [1, 3, 5]

    def test_same_key_newest_first(self, part):
        """§4.3: within a key, newer records precede older ones."""
        part.insert(rec(7, 1, 0))
        part.insert(rec(7, 3, 2))
        part.insert(rec(7, 2, 1))
        assert [r.ts for r in part.iter_records()] == [3, 2, 1]

    def test_figure11_tombstone_precedes_regular(self, part):
        """Paper Figure 11: the key-1 tombstone (TXU3) sorts before the
        key-1 replacement (TXU2) because timestamp(TXU3) > timestamp(TXU2)."""
        part.insert(rec(1, 2, 2, RecordType.REPLACEMENT))
        part.insert(rec(1, 3, 3, RecordType.TOMBSTONE))
        records = list(part.iter_records())
        assert records[0].rtype is RecordType.TOMBSTONE
        assert records[1].rtype is RecordType.REPLACEMENT

    def test_search_yields_newest_first(self, part):
        for ts in (1, 2, 3):
            part.insert(rec(7, ts, ts))
        part.insert(rec(8, 9, 9))
        hits = [r.ts for _leaf, r in part.search((7,))]
        assert hits == [3, 2, 1]


class TestLeafOrganisation:
    def test_leaves_split_when_full(self, part):
        for i in range(3000):
            part.insert(rec(i, 1, i))
        assert part.leaf_count > 1
        # leaf fences preserve global order
        records = [r.sort_key() for r in part.iter_records()]
        assert records == sorted(records)

    def test_search_across_leaf_boundaries(self, part):
        for i in range(2000):
            part.insert(rec(i % 50, i + 1, i))   # 40 versions per key
        hits = [r for _l, r in part.search((25,))]
        assert len(hits) == 40
        assert [r.ts for r in hits] == sorted((r.ts for r in hits),
                                              reverse=True)

    def test_bytes_accounting(self, part):
        assert part.bytes_used == 0
        part.insert(rec(1, 1, 0))
        assert part.bytes_used > 0
        before = part.bytes_used
        part.insert(rec(2, 1, 1))
        assert part.bytes_used > before

    def test_scan_range(self, part):
        for i in range(100):
            part.insert(rec(i, 1, i))
        got = [r.key[0] for _l, r in part.scan((10,), (20,))]
        assert got == list(range(10, 21))

    def test_scan_excludes_bounds(self, part):
        for i in range(30):
            part.insert(rec(i, 1, i))
        got = [r.key[0] for _l, r in part.scan((10,), (20,), lo_incl=False,
                                               hi_incl=False)]
        assert got == list(range(11, 20))


class TestDuplicateKeysAcrossLeaves:
    """Edge cases where one key's record group spans leaf boundaries — the
    ``emitted``/fence interplay in ``MemoryPartition.search`` and the
    bisect-positioned, copy-free ``MemoryPartition.scan``."""

    def _spanning_partition(self, dup_key=7, dups=600):
        part = MemoryPartition(0, ReferenceMode.PHYSICAL, page_size=2048)
        part.insert(rec(dup_key - 1, 1, 10_000))
        part.insert(rec(dup_key + 1, 1, 10_001))
        for ts in range(1, dups + 1):
            part.insert(rec(dup_key, ts, ts))
        assert part.leaf_count > 2, "duplicates must span several leaves"
        return part

    def test_search_returns_all_duplicates_newest_first(self):
        part = self._spanning_partition(dups=600)
        hits = [r.ts for _leaf, r in part.search((7,))]
        assert hits == list(range(600, 0, -1))

    def test_search_key_in_last_leaf(self):
        part = MemoryPartition(0, ReferenceMode.PHYSICAL, page_size=2048)
        for i in range(500):
            part.insert(rec(i, 1, i))
        assert part.leaf_count > 1
        assert [r.key[0] for _l, r in part.search((499,))] == [499]

    def test_search_key_equal_to_fence(self):
        """A probe equal to a leaf fence must find records in the leaf
        *before* the fence as well (duplicates straddle the split point)."""
        part = self._spanning_partition(dups=600)
        fences = [leaf.sort_keys[0] for leaf in part.leaves[1:]]
        assert any(f[0] == (7,) for f in fences), \
            "test needs a fence inside the duplicate group"
        assert len(list(part.search((7,)))) == 600

    def test_scan_lo_inside_duplicate_group(self):
        part = self._spanning_partition(dups=600)
        got = [r.key[0] for _l, r in part.scan((7,), None)]
        assert got == [7] * 600 + [8]

    def test_scan_lo_exclusive_skips_whole_group(self):
        part = self._spanning_partition(dups=600)
        got = [r.key[0] for _l, r in part.scan((7,), None, lo_incl=False)]
        assert got == [8]

    def test_scan_hi_exclusive_stops_before_group(self):
        part = self._spanning_partition(dups=600)
        got = [r.key[0] for _l, r in part.scan(None, (7,), hi_incl=False)]
        assert got == [6]

    def test_scan_lo_between_keys_starts_at_next_leaf(self):
        """lo falls beyond every record of the bisected start leaf: the scan
        must keep probing subsequent leaves rather than emit them whole."""
        part = MemoryPartition(0, ReferenceMode.PHYSICAL, page_size=2048)
        for i in range(400):
            part.insert(rec(i * 2, 1, i))          # even keys only
        assert part.leaf_count > 2
        got = [r.key[0] for _l, r in part.scan((401,), (411,))]
        assert got == [402, 404, 406, 408, 410]

    def test_scan_results_sorted_without_per_record_filtering(self):
        part = self._spanning_partition(dups=600)
        keys = [r.key[0] for _l, r in part.scan(None, None)]
        assert keys == sorted(keys)
        assert len(keys) == 602
