"""Unit tests for the heap (PG/HOT) version store."""

import pytest

from repro.buffer.pool import BufferPool
from repro.errors import TupleNotFoundError, WriteConflictError
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.table.heap import HeapTable
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    pool = BufferPool(64)
    table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
    return TransactionManager(clock), table


class TestInsert:
    def test_insert_assigns_vids(self, env):
        mgr, table = env
        t = mgr.begin()
        vid1, _ = table.insert(t, (1, "a"))
        vid2, _ = table.insert(t, (2, "b"))
        assert vid2 == vid1 + 1

    def test_fetch_returns_version(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        v = table.fetch(rid)
        assert v.data == (1, "a")
        assert v.ts_create == t.id
        assert v.ts_invalidate is None

    def test_fetch_bad_rid(self, env):
        _mgr, table = env
        from repro.storage.recordid import RecordID
        with pytest.raises(TupleNotFoundError):
            table.fetch(RecordID(999, 0))

    def test_foreign_page_is_not_reported_as_bad_rid(self, env):
        """Only a missing slot means "bad rid": a page of the wrong kind
        under the table's file is a bug and must surface as itself."""
        from repro.index.runs import RunPage
        mgr, table = env
        _, rid = table.insert(mgr.begin(), (1, "a"))
        table.pool.put(table.file, rid.page, RunPage([], []), dirty=False)
        with pytest.raises(AttributeError):
            table.fetch(rid)


class TestUpdate:
    def test_hot_update_stays_on_page(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        new_rid = table.update(t, rid, (1, "b"))
        assert new_rid.page == rid.page
        assert table.hot_updates == 1
        assert table.is_hot(rid, new_rid)

    def test_two_point_invalidation_stamps_predecessor(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        t1.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        old = table.fetch(rid)
        assert old.ts_invalidate == t2.id
        assert old.next_rid is not None

    def test_forced_cold_update(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        table.update(t, rid, (2, "a"), allow_hot=False)
        assert table.cold_updates == 1

    def test_write_conflict_detected(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        t1.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        t3 = mgr.begin()
        with pytest.raises(WriteConflictError):
            table.update(t3, rid, (1, "c"))

    def test_update_after_aborted_invalidator_succeeds(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        t1.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.abort()
        t3 = mgr.begin()
        table.update(t3, rid, (1, "c"))   # must not raise
        t3.commit()
        t4 = mgr.begin()
        resolved = table.visible_version(t4, rid)
        assert resolved is not None and resolved[1].data == (1, "c")


class TestVisibility:
    def test_old_snapshot_sees_old_version(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        t1.commit()
        reader = mgr.begin()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        resolved = table.visible_version(reader, rid)
        assert resolved is not None and resolved[1].data == (1, "a")

    def test_new_snapshot_walks_to_newest(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        t1.commit()
        for value in ("b", "c", "d"):
            t = mgr.begin()
            hits = table.visible_version(t, rid)
            table.update(t, hits[0], (1, value))
            t.commit()
        reader = mgr.begin()
        resolved = table.visible_version(reader, rid)
        assert resolved[1].data == (1, "d")

    def test_uncommitted_version_invisible(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        reader = mgr.begin()
        assert table.visible_version(reader, rid) is None

    def test_delete_hides_tuple(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        t1.commit()
        old_reader = mgr.begin()
        t2 = mgr.begin()
        table.delete(t2, rid)
        t2.commit()
        new_reader = mgr.begin()
        assert table.visible_version(old_reader, rid)[1].data == (1, "a")
        assert table.visible_version(new_reader, rid) is None


class TestScans:
    def test_scan_visible_filters_versions(self, env):
        mgr, table = env
        t = mgr.begin()
        rids = {}
        for i in range(10):
            _, rids[i] = table.insert(t, (i, "v0"))
        t.commit()
        t2 = mgr.begin()
        table.update(t2, rids[0], (0, "v1"))
        t2.commit()
        reader = mgr.begin()
        rows = sorted(row for _rid, row in table.scan_visible(reader))
        assert len(rows) == 10
        assert rows[0] == (0, "v1")

    def test_scan_versions_counts_all(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        table.update(t, rid, (1, "b"))
        t.commit()
        assert len(list(table.scan_versions())) == 2


class TestSmallPoolDurability:
    """Regression: heap mutations must survive buffer-pool eviction
    (a page dropped without write-back loses committed data)."""

    def test_inserts_survive_pool_pressure(self):
        from repro.buffer.pool import BufferPool
        from repro.sim.clock import SimClock
        from repro.sim.device import SimulatedDevice
        from repro.sim.profiles import UNIT_TEST_PROFILE
        from repro.storage.pagefile import PageFile
        from repro.table.heap import HeapTable
        from repro.txn.manager import TransactionManager
        clock = SimClock()
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        pool = BufferPool(4)   # tiny: every page gets evicted repeatedly
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        mgr = TransactionManager(clock)
        t = mgr.begin()
        rids = {}
        for i in range(500):
            _, rids[i] = table.insert(t, (i, "x" * 200))
        for i in range(0, 500, 5):
            rids[i] = table.update(t, rids[i], (i, "y" * 200))
        t.commit()
        reader = mgr.begin()
        for i in (0, 5, 123, 250, 499):
            resolved = table.visible_version(reader, rids[i])
            assert resolved is not None, i
            expected = "y" * 200 if i % 5 == 0 else "x" * 200
            assert resolved[1].data == (i, expected)
