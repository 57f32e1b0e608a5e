"""Unit tests for the streaming cursor API (``MVPBT.cursor``).

The cursor is the primitive behind ``range_scan`` and ``scan_limit``: a
lazy k-way merge over all partitions on the §4.3 composite order that feeds
the §4.4 visibility cascade and yields hits in key order.
"""

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.core.tree import MVPBT, SearchHit
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    pool = BufferPool(128)
    pb = PartitionBuffer(1 << 22)
    mgr = TransactionManager(clock)

    def make(name="ix", **opts):
        return MVPBT(name, PageFile(name, device, 8192, 8), pool, pb, mgr,
                     **opts)
    return mgr, make


def build_multi_partition(mgr, make, n=60):
    """Three persisted partitions plus P_N, with updates and deletes."""
    ix = make()
    t = mgr.begin()
    for i in range(0, n, 2):
        ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
    t.commit()
    ix.evict_partition()
    t = mgr.begin()
    for i in range(1, n, 2):
        ix.insert(t, (i,), RecordID(2, i), vid=100 + i)
    t.commit()
    ix.evict_partition()
    t = mgr.begin()
    for i in range(0, n, 6):                   # newer versions of some keys
        ix.update_nonkey(t, (i,), RecordID(3, i), RecordID(1, i), vid=i + 1)
    t.commit()
    ix.evict_partition()
    t = mgr.begin()
    for i in range(3, n, 10):                  # deletes, still in P_N
        ix.delete(t, (i,), RecordID(2, i), vid=100 + i)
    t.commit()
    return ix


class TestCursorResults:
    def test_cursor_equals_range_scan(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        assert list(ix.cursor(reader, None, None)) \
            == ix.range_scan(reader, None, None)

    def test_yields_key_order_without_sort(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        keys = [h.key for h in ix.cursor(reader, None, None)]
        assert keys == sorted(keys)

    def test_newest_visible_version_wins_across_partitions(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        by_key = {h.key[0]: h for h in ix.cursor(reader, None, None)}
        assert by_key[0].rid == RecordID(3, 0)      # updated version
        assert by_key[2].rid == RecordID(1, 2)      # original version
        assert 3 not in by_key                      # deleted
        assert by_key[5].rid == RecordID(2, 5)

    def test_bounds_and_exclusivity(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        full = ix.range_scan(reader, (10,), (20,),
                             lo_incl=False, hi_incl=False)
        streamed = list(ix.cursor(reader, (10,), (20,),
                                  lo_incl=False, hi_incl=False))
        assert streamed == full
        assert all(10 < h.key[0] < 20 for h in streamed)

    def test_yields_search_hits(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        hit = next(ix.cursor(reader, None, None))
        assert isinstance(hit, SearchHit)


class TestCursorLaziness:
    def test_early_close_checks_fewer_records(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        before = ix.stats.records_checked
        cur = ix.cursor(reader, None, None)
        first = [next(cur) for _ in range(3)]
        cur.close()
        partial = ix.stats.records_checked - before

        before = ix.stats.records_checked
        full = ix.range_scan(reader, None, None)
        complete = ix.stats.records_checked - before

        assert [h.key for h in first] == [h.key for h in full[:3]]
        assert 0 < partial < complete

    def test_tree_usable_after_abandoned_cursor(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        cur = ix.cursor(reader, None, None)
        next(cur)
        cur.close()
        t = mgr.begin()
        ix.insert(t, (1000,), RecordID(9, 0), vid=9000)
        t.commit()
        fresh = mgr.begin()
        assert [h.key for h in ix.search(fresh, (1000,))] == [(1000,)]

    def test_scan_limit_is_cursor_prefix(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        full = ix.range_scan(reader, None, None)
        for limit in (1, 5, len(full), len(full) + 10):
            assert ix.scan_limit(reader, None, limit) == full[:limit]


class TestCursorStats:
    def test_scan_counted_once_per_drain(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        before = ix.stats.scans
        ix.range_scan(reader, None, None)
        assert ix.stats.scans == before + 1

    def test_hits_counted_once(self, env):
        """``hits_returned`` and ``records_checked`` grow by exactly the
        number of hits handed out: on one page of 60 records the merged
        slice is longer than the limit, and the classifier stops at it."""
        mgr, make = env
        ix = make()
        t = mgr.begin()
        for i in range(60):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
        assert ix.persisted_partitions[0].run.page_count == 1
        reader = mgr.begin()
        before = (ix.stats.hits_returned, ix.stats.records_checked)
        hits = ix.scan_limit(reader, None, 7)
        assert len(hits) == 7
        assert ix.stats.hits_returned == before[0] + 7
        assert ix.stats.records_checked == before[1] + 7

    def test_abandoned_cursor_records_checked_accounted(self, env):
        mgr, make = env
        ix = build_multi_partition(mgr, make)
        reader = mgr.begin()
        before = ix.stats.records_checked
        cur = ix.cursor(reader, None, None)
        next(cur)
        cur.close()
        assert ix.stats.records_checked > before

    def test_partition_filters_applied(self, env):
        mgr, make = env
        ix = make()
        old_reader = mgr.begin()
        t = mgr.begin()
        for i in range(40):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
        # the partition postdates old_reader's snapshot: min-ts filter skips
        before = ix.stats.partitions_skipped_mints
        assert list(ix.cursor(old_reader, None, None)) == []
        assert ix.stats.partitions_skipped_mints == before + 1
        # range filter
        reader = mgr.begin()
        before = ix.stats.partitions_skipped_range
        assert list(ix.cursor(reader, (500,), (600,))) == []
        assert ix.stats.partitions_skipped_range == before + 1

    def test_prefix_bloom_gates_cursor(self, env):
        mgr, make = env
        ix = make()
        t = mgr.begin()
        for d in (0, 11, 22):
            for o in range(20):
                ix.insert(t, (d, o), RecordID(d, o), vid=d * 100 + o + 1)
        t.commit()
        ix.evict_partition()
        reader = mgr.begin()
        assert len(list(ix.cursor(reader, (11, 0), (11, 99)))) == 20
        # ten absent prefixes inside the partition's key range: a 10 %
        # filter over three prefixes must turn most of them away
        before = ix.stats.partitions_skipped_bloom
        for d in range(1, 11):
            assert list(ix.cursor(reader, (d, 0), (d, 99))) == []
        assert ix.stats.partitions_skipped_bloom - before > 5


class TestAblationCursor:
    def test_version_oblivious_candidates_stream(self, env):
        mgr, make = env
        ix = make(index_only_visibility=False, enable_gc=False)
        t = mgr.begin()
        ix.insert(t, (1,), RecordID(0, 0), vid=1)
        ix.insert(t, (2,), RecordID(0, 1), vid=2)
        t.commit()
        t2 = mgr.begin()
        ix.update_nonkey(t2, (1,), RecordID(0, 2), RecordID(0, 0), vid=1)
        t2.commit()
        reader = mgr.begin()
        # both versions are candidates: no visibility check in this mode
        assert {h.rid for h in ix.cursor(reader, None, None)} \
            == {RecordID(0, 0), RecordID(0, 1), RecordID(0, 2)}
