"""Unit tests for the paged B⁺-Tree."""

import random

import pytest

from repro.buffer.pool import BufferPool
from repro.index.btree.tree import BPlusTree
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID


@pytest.fixture
def tree():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    pool = BufferPool(256)
    return BPlusTree("bt", PageFile("bt", device, 8192, 8), pool)


class TestInsertSearch:
    def test_single_entry(self, tree):
        tree.insert_entry((5,), RecordID(0, 1))
        assert tree.search((5,)) == [RecordID(0, 1)]

    def test_missing_key(self, tree):
        tree.insert_entry((5,), RecordID(0, 1))
        assert tree.search((6,)) == []

    def test_many_random_inserts(self, tree):
        rng = random.Random(3)
        keys = list(range(5000))
        rng.shuffle(keys)
        for k in keys:
            tree.insert_entry((k,), RecordID(0, k % 1000))
        assert tree.file.allocated_pages > 1   # the root leaf split
        for k in (0, 4999, 2500, 1234):
            assert tree.search((k,)) == [RecordID(0, k % 1000)]
        assert tree.entry_count() == 5000

    def test_duplicate_keys_all_returned(self, tree):
        for i in range(5):
            tree.insert_entry((7,), RecordID(1, i))
        assert len(tree.search((7,))) == 5

    def test_duplicates_across_leaf_boundary(self, tree):
        for i in range(600):
            tree.insert_entry((7,), RecordID(1, i))
        assert len(tree.search((7,))) == 600

    def test_composite_keys(self, tree):
        tree.insert_entry((1, "a"), RecordID(0, 0))
        tree.insert_entry((1, "b"), RecordID(0, 1))
        assert tree.search((1, "a")) == [RecordID(0, 0)]


class TestRangeScan:
    def test_scan_range(self, tree):
        for k in range(100):
            tree.insert_entry((k,), RecordID(0, k))
        got = [k[0] for k, _r in tree.range_scan((10,), (20,))]
        assert got == list(range(10, 21))

    def test_scan_exclusive(self, tree):
        for k in range(30):
            tree.insert_entry((k,), RecordID(0, k))
        got = [k[0] for k, _r in tree.range_scan((10,), (20,),
                                                 lo_incl=False,
                                                 hi_incl=False)]
        assert got == list(range(11, 20))

    def test_full_scan_sorted(self, tree):
        rng = random.Random(1)
        keys = list(range(2000))
        rng.shuffle(keys)
        for k in keys:
            tree.insert_entry((k,), RecordID(0, 0))
        got = [k[0] for k, _r in tree.range_scan(None, None)]
        assert got == sorted(got)
        assert len(got) == 2000


class TestRemoveUpsert:
    def test_remove_entry(self, tree):
        tree.insert_entry((5,), RecordID(0, 1))
        tree.insert_entry((5,), RecordID(0, 2))
        assert tree.remove_entry((5,), RecordID(0, 1))
        assert tree.search((5,)) == [RecordID(0, 2)]

    def test_remove_missing_returns_false(self, tree):
        assert not tree.remove_entry((5,), RecordID(0, 1))

    def test_remove_across_leaf_boundary(self, tree):
        for i in range(600):
            tree.insert_entry((7,), RecordID(1, i))
        assert tree.remove_entry((7,), RecordID(1, 599))
        assert len(tree.search((7,))) == 599

    def test_upsert_replaces_in_place(self, tree):
        assert not tree.upsert(("k",), "v1")
        assert tree.upsert(("k",), "v2")
        assert tree.get(("k",)) == "v2"
        assert tree.entry_count() == 1

    def test_get_missing_returns_none(self, tree):
        assert tree.get(("nope",)) is None


class TestIOBehaviour:
    def test_writes_are_random_page_writes(self):
        clock = SimClock()
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        pool = BufferPool(8)   # tiny pool forces evictions of dirty pages
        tree = BPlusTree("bt", PageFile("bt", device, 8192, 8), pool)
        rng = random.Random(3)
        keys = list(range(4000))
        rng.shuffle(keys)
        for k in keys:
            tree.insert_entry((k,), RecordID(0, 0))
        # in-place updated nodes come back as random writes
        assert device.stats.rand_writes > 0

    def test_oracle_consistency_random_ops(self, tree):
        rng = random.Random(9)
        oracle: dict[int, list] = {}
        for _ in range(3000):
            k = rng.randrange(300)
            if rng.random() < 0.7:
                rid = RecordID(1, rng.randrange(1000))
                tree.insert_entry((k,), rid)
                oracle.setdefault(k, []).append(rid)
            elif oracle.get(k):
                rid = oracle[k].pop()
                assert tree.remove_entry((k,), rid)
        for k, rids in oracle.items():
            assert sorted(tree.search((k,))) == sorted(rids), k
