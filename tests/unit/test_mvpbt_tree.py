"""Unit tests for MV-PBT tree operations (§4.2)."""

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.core.tree import MVPBT
from repro.errors import UniqueViolationError
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import INTEL_DC_P3600
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(INTEL_DC_P3600, clock)
    pool = BufferPool(128)
    pb = PartitionBuffer(1 << 22)
    mgr = TransactionManager(clock)

    def make(name="ix", **opts):
        return MVPBT(name, PageFile(name, device, 8192, 8), pool, pb, mgr,
                     **opts)
    return mgr, make, device


V = [RecordID(0, i) for i in range(10)]


class TestFigure10Scenario:
    """The paper's running example: insert, non-key update, key update,
    delete — each observed from the snapshots that should(n't) see them."""

    def test_full_lifecycle(self, env):
        mgr, make, _d = env
        ix = make()
        tx0 = mgr.begin()
        ix.insert(tx0, (7,), V[0], vid=1)
        tx0.commit()
        txr = mgr.begin()                      # long-running reader

        tx1 = mgr.begin()
        ix.update_nonkey(tx1, (7,), V[1], V[0], vid=1)
        tx1.commit()
        tx2 = mgr.begin()
        ix.update_key(tx2, (7,), (1,), V[2], V[1], vid=1)
        tx2.commit()
        tx3 = mgr.begin()
        ix.delete(tx3, (1,), V[2], vid=1)
        tx3.commit()

        assert [h.rid for h in ix.search(txr, (7,))] == [V[0]]
        assert ix.search(txr, (1,)) == []
        assert [h.rid for h in ix.range_scan(txr, (0,), (10,))] == [V[0]]

        fresh = mgr.begin()
        assert ix.search(fresh, (7,)) == []
        assert ix.search(fresh, (1,)) == []
        assert ix.range_scan(fresh, None, None) == []

    def test_record_type_counters(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (7,), V[0], vid=1)
        ix.update_nonkey(t, (7,), V[1], V[0], vid=1)
        ix.update_key(t, (7,), (1,), V[2], V[1], vid=1)
        ix.delete(t, (1,), V[2], vid=1)
        t.commit()
        assert ix.stats.inserts == 1
        assert ix.stats.replacements == 2     # non-key + key update
        assert ix.stats.anti_records == 1
        assert ix.stats.tombstones == 1


class TestSearch:
    def test_intermediate_snapshots(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (7,), V[0], vid=1)
        t.commit()
        s1 = mgr.begin()
        t = mgr.begin()
        ix.update_nonkey(t, (7,), V[1], V[0], vid=1)
        t.commit()
        s2 = mgr.begin()
        t = mgr.begin()
        ix.update_nonkey(t, (7,), V[2], V[1], vid=1)
        t.commit()
        s3 = mgr.begin()
        assert [h.rid for h in ix.search(s1, (7,))] == [V[0]]
        assert [h.rid for h in ix.search(s2, (7,))] == [V[1]]
        assert [h.rid for h in ix.search(s3, (7,))] == [V[2]]

    def test_non_unique_returns_all_visible_tuples(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        for i in range(5):
            ix.insert(t, (7,), V[i], vid=i + 1)
        t.commit()
        reader = mgr.begin()
        assert len(ix.search(reader, (7,))) == 5

    def test_uncommitted_changes_visible_to_self_only(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (7,), V[0], vid=1)
        other = mgr.begin()
        assert [h.rid for h in ix.search(t, (7,))] == [V[0]]
        assert ix.search(other, (7,)) == []

    def test_aborted_insert_invisible(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (7,), V[0], vid=1)
        t.abort()
        reader = mgr.begin()
        assert ix.search(reader, (7,)) == []


class TestUniqueIndex:
    def test_duplicate_insert_rejected(self, env):
        mgr, make, _d = env
        ix = make(unique=True)
        t = mgr.begin()
        ix.insert(t, (1,), V[0], vid=1)
        with pytest.raises(UniqueViolationError):
            ix.insert(t, (1,), V[1], vid=2)

    def test_key_update_into_occupied_slot_rejected(self, env):
        mgr, make, _d = env
        ix = make(unique=True)
        t = mgr.begin()
        ix.insert(t, (1,), V[0], vid=1)
        ix.insert(t, (2,), V[1], vid=2)
        t.commit()
        t2 = mgr.begin()
        with pytest.raises(UniqueViolationError):
            ix.update_key(t2, (1,), (2,), V[2], V[0], vid=1)

    def test_reinsert_after_delete_allowed(self, env):
        mgr, make, _d = env
        ix = make(unique=True)
        t = mgr.begin()
        ix.insert(t, (1,), V[0], vid=1)
        t.commit()
        t2 = mgr.begin()
        ix.delete(t2, (1,), V[0], vid=1)
        t2.commit()
        t3 = mgr.begin()
        ix.insert(t3, (1,), V[1], vid=2)   # must not raise
        t3.commit()
        reader = mgr.begin()
        assert [h.rid for h in ix.search(reader, (1,))] == [V[1]]


class TestScanLimit:
    def test_limit_respected_and_sorted(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        for i in range(100):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        reader = mgr.begin()
        hits = ix.scan_limit(reader, (10,), 5)
        assert [h.key[0] for h in hits] == [10, 11, 12, 13, 14]

    def test_limit_across_partitions(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        for i in range(0, 50, 2):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
        t = mgr.begin()
        for i in range(1, 50, 2):
            ix.insert(t, (i,), RecordID(2, i), vid=100 + i)
        t.commit()
        reader = mgr.begin()
        hits = ix.scan_limit(reader, (0,), 10)
        assert [h.key[0] for h in hits] == list(range(10))

    def test_limit_sees_only_visible(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        for i in range(10):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        t2 = mgr.begin()
        ix.delete(t2, (3,), RecordID(1, 3), vid=4)
        t2.commit()
        reader = mgr.begin()
        hits = ix.scan_limit(reader, (0,), 5)
        assert [h.key[0] for h in hits] == [0, 1, 2, 4, 5]

    def test_updated_key_returns_newest_version(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        for i in range(10):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
        t2 = mgr.begin()
        ix.update_nonkey(t2, (5,), RecordID(2, 5), RecordID(1, 5), vid=6)
        t2.commit()
        reader = mgr.begin()
        hits = ix.scan_limit(reader, (5,), 1)
        assert hits[0].rid == RecordID(2, 5)


class TestAblationMode:
    # no early stop on a unique / first-hit tree: a candidate may be
    # invisible, so every version's candidate must come back
    @pytest.mark.parametrize("opts", [{}, {"unique": True},
                                      {"first_hit_only": True}],
                             ids=["plain", "unique", "first_hit_only"])
    def test_candidates_include_all_versions(self, env, opts):
        mgr, make, _d = env
        ix = make(index_only_visibility=False, enable_gc=False, **opts)
        t = mgr.begin()
        ix.insert(t, (7,), V[0], vid=1)
        t.commit()
        t2 = mgr.begin()
        ix.update_nonkey(t2, (7,), V[1], V[0], vid=1)
        t2.commit()
        reader = mgr.begin()
        # version-oblivious: both versions' records are candidates
        assert {h.rid for h in ix.search(reader, (7,))} == {V[0], V[1]}

    def test_range_candidates(self, env):
        mgr, make, _d = env
        ix = make(index_only_visibility=False, enable_gc=False)
        t = mgr.begin()
        ix.insert(t, (1,), V[0], vid=1)
        ix.insert(t, (2,), V[1], vid=2)
        ix.delete(t, (2,), V[1], vid=2)
        t.commit()
        reader = mgr.begin()
        # tombstone has no matter: candidates are the two inserts
        assert {h.rid for h in ix.range_scan(reader, None, None)} == {V[0], V[1]}


class TestPartitionFilters:
    def test_min_ts_filter_skips_new_partitions(self, env):
        mgr, make, _d = env
        ix = make()
        old_reader = mgr.begin()
        t = mgr.begin()
        for i in range(50):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
        ix.search(old_reader, (25,))
        assert ix.stats.partitions_skipped_mints >= 1

    def test_range_key_filter(self, env):
        mgr, make, _d = env
        ix = make(use_bloom=False)
        t = mgr.begin()
        for i in range(50):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
        reader = mgr.begin()
        ix.search(reader, (500,))
        assert ix.stats.partitions_skipped_range >= 1

    def test_bloom_filter_skips(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        for i in range(50):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
        reader = mgr.begin()
        ix.search(reader, (55,))   # in range-key range? no; use in-range key
        t2 = mgr.begin()
        for i in range(100, 150):
            ix.insert(t2, (i,), RecordID(2, i), vid=1000 + i)
        t2.commit()
        ix.evict_partition()
        reader2 = mgr.begin()
        ix.search(reader2, (120,))   # absent from partition 0's bloom? no-
        ix.search(reader2, (75,))    # absent from both partitions' range
        # at minimum the filters were consulted without false negatives
        assert [h.key for h in ix.search(reader2, (120,))] == [(120,)]

    def test_prefix_bloom_gates_range_scans(self, env):
        mgr, make, _d = env
        ix = make()
        t = mgr.begin()
        for d in (0, 20, 40, 60, 80):            # gaps in the prefix space
            for o in range(20):
                ix.insert(t, (d, o), RecordID(d, o), vid=d * 100 + o + 1)
        t.commit()
        ix.evict_partition()
        reader = mgr.begin()
        hits = ix.range_scan(reader, (20, 0), (20, 99))
        assert len(hits) == 20
        # absent prefixes *inside* the partition's key range: only the
        # prefix bloom filter can skip them, and it skips most
        for d in range(21, 31):
            assert ix.range_scan(reader, (d, 0), (d, 99)) == []
        assert ix.stats.partitions_skipped_bloom > 5
