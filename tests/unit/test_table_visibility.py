"""Unit tests for base-table candidate resolution (the expensive path):
one ``VersionStore.resolve`` loop for every store and both reference
modes."""

import pytest

from repro.buffer.pool import BufferPool
from repro.config import CostModel
from repro.errors import StorageError
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.table.delta import DeltaTable
from repro.table.heap import HeapTable
from repro.table.sias import SIASTable
from repro.table.visibility import version_visible_heap
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
        resolved = table.resolve(reader, [rid, new_rid])
        assert len(resolved) == 1
        assert resolved[0][1].data == (1, "b")

    def test_invisible_candidates_skipped(self, env):
        _d, pool, mgr = env
        table = HeapTable("t", PageFile("t", _d, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        reader = mgr.begin()   # does not see uncommitted insert
        assert table.resolve(reader, [rid]) == []

    def test_missing_rid_skipped(self, env):
        _d, pool, mgr = env
        table = HeapTable("t", PageFile("t", _d, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        resolved = table.resolve(mgr.begin(),
                                 [RecordID(rid.page, 999), rid])
        assert [version.data for _rid, version in resolved] == [(1, "a")]


class TestResolveSias:
    def test_candidate_for_stale_version_resolves_to_visible(self, env):
        _d, pool, mgr = env
        table = SIASTable("s", PageFile("s", _d, 8192, 8), pool)
        t = mgr.begin()
        vid, rid0 = table.insert(t, (1, "v0"))
        table.update(t, rid0, (1, "v1"))
        t.commit()
        reader = mgr.begin()
        resolved = table.resolve(reader, [rid0])
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
        resolved = table.resolve(reader_old, [rid])
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
        assert table.resolve(reader, [rid]) == []

    def test_duplicate_candidates_deduped(self, env):
        _d, pool, mgr = env
        table = SIASTable("s", PageFile("s", _d, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        reader = mgr.begin()
        resolved = table.resolve(reader, [rid, rid])
        assert len(resolved) == 1

    def test_stale_rid_skipped_but_storage_fault_propagates(
            self, env, monkeypatch):
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
        assert table.vacuum(mgr).pages_freed == 1   # dead's page
        reader = mgr.begin()
        stale = [RecordID(rid.page, 999), dead]
        resolved = table.resolve(reader, stale + [rid])
        assert [version.data for _rid, version in resolved] \
            == [(1, "a" * 7000)]

        def fault(_rid):
            raise StorageError("device read failed")

        monkeypatch.setattr(table, "fetch", fault)
        with pytest.raises(StorageError):
            table.resolve(reader, [rid])


class TestResolveDelta:
    def _table(self, env):
        device, pool, mgr = env
        return DeltaTable("d", PageFile("d", device, 8192, 8),
                          PageFile("d.pool", device, 8192, 8), pool), mgr

    def test_duplicate_candidates_walk_once(self, env):
        table, mgr = self._table(env)
        t = mgr.begin()
        _vid, rid = table.insert(t, (1, "v0"))
        t.commit()
        reader = mgr.begin()
        t = mgr.begin()
        table.update(t, rid, (1, "v1"))
        t.commit()
        resolved = table.resolve(reader, [rid, rid])
        assert [version.data for _rid, version in resolved] == [(1, "v0")]
        assert table.reconstructions == 1


class TestResolveLogical:
    def test_duplicate_and_unknown_vids(self, env):
        _d, pool, mgr = env
        table = SIASTable("s", PageFile("s", _d, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "v0"))
        new_rid = table.update(t, rid, (1, "v1"))
        t.commit()
        assert table._entry == {vid: new_rid}
        clock = SimClock(cost=CostModel(indirection_lookup=1.0))
        table.charge_vid_map(clock, 0)
        resolved = table.resolve(mgr.begin(), [vid, vid + 1, vid], True)
        assert [version.data for _rid, version in resolved] == [(1, "v1")]
        assert clock.now == 2.0     # one map read each: vid, vid + 1


@pytest.mark.parametrize("kind", ["heap", "sias", "delta"])
def test_chains_list_history_and_adopt(env, kind):
    """Each store lists a chain oldest first, its delete as a closing
    tombstone, and a store of the same kind adopts the listing."""
    device, pool, mgr = env

    def store(name):
        main = PageFile(name, device, 8192, 8)
        if kind == "heap":
            return HeapTable(name, main, pool)
        if kind == "sias":
            return SIASTable(name, main, pool)
        return DeltaTable(name, main, PageFile(name + ".pool", device,
                                               8192, 8), pool)

    table = store("t")
    rid = None
    for write in ("insert", "update", "delete"):
        t = mgr.begin()
        if write == "insert":
            _vid, rid = table.insert(t, (1, "v0"))
        elif write == "update":
            rid = table.update(t, rid, (1, "v1"), allow_hot=False)
        else:
            table.delete(t, rid)
        t.commit()
    [chain] = table.chains()
    versions = [version for _rid, version in chain]
    assert [v.data for v in versions[:2]] == [(1, "v0"), (1, "v1")]
    assert [v.is_tombstone for v in versions] == [False, False, True]
    assert [v.ts_create for v in versions] \
        == sorted(v.ts_create for v in versions)
    assert chain[2][0] == chain[1][0] or kind == "sias"
    if kind == "delta":
        assert len({rid for rid, _version in chain}) == 1
        return
    copy = store("c")
    vid, adopted = copy.adopt_chain(chain)
    assert set(adopted) == {rid for rid, _version in chain}
    [copied] = copy.chains()
    assert [(v.vid, v.data, v.ts_create, v.is_tombstone)
            for _rid, v in copied] \
        == [(vid, v.data, v.ts_create, v.is_tombstone) for v in versions]
