"""Unit tests for base-table candidate resolution (the expensive path)."""

import pytest

from repro.buffer.pool import BufferPool
from repro.errors import StorageError
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.table.heap import HeapTable
from repro.table.sias import SIASTable
from repro.table.visibility import (resolve_candidates_heap,
                                    resolve_candidates_sias,
                                    version_visible_heap)
from repro.table.base import TupleVersion
from repro.txn.manager import TransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.status import CommitLog


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    pool = BufferPool(64)
    mgr = TransactionManager(clock)
    return device, pool, mgr


class TestHeapVisibilityPredicate:
    def _log(self, committed=(), aborted=()):
        log = CommitLog()
        for ts in committed:
            log.register(ts)
            log.set_committed(ts)
        for ts in aborted:
            log.register(ts)
            log.set_aborted(ts)
        return log

    def test_visible_plain_version(self):
        log = self._log(committed=[1])
        snap = Snapshot(owner=5, xmax=5, xmin=5)
        v = TupleVersion(vid=1, data=(1,), ts_create=1)
        assert version_visible_heap(v, snap, log)

    def test_invalidated_version_invisible(self):
        log = self._log(committed=[1, 2])
        snap = Snapshot(owner=5, xmax=5, xmin=5)
        v = TupleVersion(vid=1, data=(1,), ts_create=1, ts_invalidate=2)
        assert not version_visible_heap(v, snap, log)

    def test_invalidation_by_aborted_txn_ignored(self):
        log = self._log(committed=[1], aborted=[2])
        snap = Snapshot(owner=5, xmax=5, xmin=5)
        v = TupleVersion(vid=1, data=(1,), ts_create=1, ts_invalidate=2)
        assert version_visible_heap(v, snap, log)

    def test_invalidation_after_snapshot_ignored(self):
        log = self._log(committed=[1, 9])
        snap = Snapshot(owner=5, xmax=5, xmin=5)
        v = TupleVersion(vid=1, data=(1,), ts_create=1, ts_invalidate=9)
        assert version_visible_heap(v, snap, log)

    def test_tombstone_invisible(self):
        log = self._log(committed=[1])
        snap = Snapshot(owner=5, xmax=5, xmin=5)
        v = TupleVersion(vid=1, data=(), ts_create=1, is_tombstone=True)
        assert not version_visible_heap(v, snap, log)


class TestResolveHeap:
    def test_dedupes_by_tuple(self, env):
        _d, pool, mgr = env
        table = HeapTable("t", PageFile("t", _d, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        new_rid = table.update(t, rid, (1, "b"), allow_hot=False)
        t.commit()
        reader = mgr.begin()
        resolved = resolve_candidates_heap(reader, table, [rid, new_rid])
        assert len(resolved) == 1
        assert resolved[0][1].data == (1, "b")

    def test_invisible_candidates_skipped(self, env):
        _d, pool, mgr = env
        table = HeapTable("t", PageFile("t", _d, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        reader = mgr.begin()   # does not see uncommitted insert
        assert resolve_candidates_heap(reader, table, [rid]) == []


class TestResolveSias:
    def test_candidate_for_stale_version_resolves_to_visible(self, env):
        _d, pool, mgr = env
        table = SIASTable("s", PageFile("s", _d, 8192, 8), pool)
        t = mgr.begin()
        vid, rid0 = table.insert(t, (1, "v0"))
        table.update(t, rid0, (1, "v1"))
        t.commit()
        reader = mgr.begin()
        resolved = resolve_candidates_sias(reader, table, [rid0])
        assert len(resolved) == 1
        assert resolved[0][1].data == (1, "v1")

    def test_long_chain_costs_proportional_io(self, env):
        device, pool, mgr = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool,
                          flush_extent_pages=1)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "v0" + "x" * 500))
        t.commit()
        reader_old = mgr.begin()   # pins the old snapshot
        last = rid
        for i in range(40):
            t = mgr.begin()
            last = table.update(t, last, (1, f"v{i + 1}" + "x" * 500))
            t.commit()
        table.flush_tail()
        # resolving for the OLD snapshot must walk the whole chain
        small_pool_requests = pool.total_stats().requests
        resolved = resolve_candidates_sias(reader_old, table, [rid])
        walk_requests = pool.total_stats().requests - small_pool_requests
        assert resolved[0][1].data[1].startswith("v0")
        assert walk_requests >= 20   # many version fetches, the paper's cost

    def test_deleted_tuple_resolves_empty(self, env):
        _d, pool, mgr = env
        table = SIASTable("s", PageFile("s", _d, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        t2 = mgr.begin()
        table.delete(t2, rid)
        t2.commit()
        reader = mgr.begin()
        assert resolve_candidates_sias(reader, table, [rid]) == []

    def test_duplicate_candidates_deduped(self, env):
        _d, pool, mgr = env
        table = SIASTable("s", PageFile("s", _d, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        reader = mgr.begin()
        resolved = resolve_candidates_sias(reader, table, [rid, rid])
        assert len(resolved) == 1

    def test_stale_rid_skipped_but_storage_fault_propagates(
            self, env, monkeypatch):
        from repro.table.vacuum import vacuum_sias
        _d, pool, mgr = env
        table = SIASTable("s", PageFile("s", _d, 8192, 8), pool,
                          flush_extent_pages=1)
        t = mgr.begin()
        _vid, dead = table.insert(t, (0, "x" * 3000))
        t.commit()
        t = mgr.begin()
        table.delete(t, dead)
        _vid, rid = table.insert(t, (1, "a" * 7000))    # the next page
        t.commit()
        table.flush_tail()
        assert vacuum_sias(table, mgr).pages_freed == 1   # dead's page
        reader = mgr.begin()
        stale = [RecordID(rid.page, 999), dead]
        resolved = resolve_candidates_sias(reader, table, stale + [rid])
        assert [version.data for _rid, version in resolved] \
            == [(1, "a" * 7000)]

        def fault(_rid):
            raise StorageError("device read failed")

        monkeypatch.setattr(table, "fetch", fault)
        with pytest.raises(StorageError):
            resolve_candidates_sias(reader, table, [rid])
