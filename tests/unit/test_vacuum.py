"""Unit tests for tuple-level garbage collection (vacuum)."""

import pytest

from repro.buffer.pool import BufferPool
from repro.errors import (StorageError, TupleNotFoundError,
                          WriteConflictError)
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.table.delta import DeltaTable
from repro.table.heap import HeapTable
from repro.table.sias import SIASTable
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    return TransactionManager(clock), device, BufferPool(128)


def make_store(kind, device, pool):
    if kind == "heap":
        return HeapTable("t", PageFile("t", device, 8192, 8), pool)
    if kind == "sias":
        return SIASTable("t", PageFile("t", device, 8192, 8), pool)
    return DeltaTable("t", PageFile("t:main", device, 8192, 8),
                      PageFile("t:pool", device, 8192, 8), pool)


def current(store, vid):
    """The rid an update of ``vid`` starts from: its chain's newest."""
    return [chain for chain in store.chains()
            if chain[0][1].vid == vid][-1][-1][0]


def rows(store):
    """Each listed chain's row images (a heap's redirect stub has none)."""
    return [[version.data for _rid, version in chain
             if not version.is_tombstone] for chain in store.chains()]


def entries(store):
    """vid -> the rid each listed chain ends at (a SIAS entry point)."""
    return {chain[0][1].vid: chain[-1][0] for chain in store.chains()}


@pytest.mark.parametrize("kind", ["heap", "sias", "delta"])
class TestOneRule:
    """What every store's vacuum does: the one rule over its chains."""

    def test_superseded_versions_removed(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, _rid = store.insert(t, (1, "a"))
        t.commit()
        for i in range(5):
            t = mgr.begin()
            store.update(t, current(store, vid), (1, f"v{i}"))
            t.commit()
        assert store.vacuum(mgr).versions_removed == 5
        reader = mgr.begin()
        assert store.visible_version(reader, current(store, vid))[1].data \
            == (1, "v4")
        # a second pass finds nothing more
        assert store.vacuum(mgr).versions_removed == 0

    def test_versions_visible_to_active_snapshot_kept(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        t.commit()
        old_reader = mgr.begin()
        t2 = mgr.begin()
        store.update(t2, rid, (1, "b"))
        t2.commit()
        assert store.vacuum(mgr).versions_removed == 0
        start = rid if kind == "heap" else current(store, vid)
        assert store.visible_version(old_reader, start)[1].data == (1, "a")
        fresh = mgr.begin()
        assert store.visible_version(fresh, start)[1].data == (1, "b")

    def test_aborted_insert_leaves_no_chain(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        t.abort()
        result = store.vacuum(mgr)
        assert result.versions_removed == 1
        assert result.removed_rids == [rid] and result.dropped_vids == [vid]
        assert store.chains() == []

    def test_committed_delete_drops_the_chain(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        t.commit()
        t = mgr.begin()
        store.delete(t, rid)
        t.commit()
        result = store.vacuum(mgr)
        assert result.dropped_vids == [vid] and rid in result.removed_rids
        assert store.chains() == []

    def test_aborted_update_and_delete_collected(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        t.commit()
        t2 = mgr.begin()
        store.update(t2, rid, (1, "bad"))
        t2.abort()
        t3 = mgr.begin()
        store.delete(t3, rid)
        t3.abort()
        result = store.vacuum(mgr)
        assert result.versions_removed >= 1 and result.dropped_vids == []
        assert rows(store) == [[(1, "a")]]
        assert store.vacuum(mgr).versions_removed == 0
        reader = mgr.begin()
        assert store.visible_version(reader, current(store, vid))[1].data \
            == (1, "a")

    def test_aborted_run_beside_a_live_chain_goes_alone(self, env, kind):
        """An aborted update that a later update stepped past (an orphan
        on heap and SIAS) is reclaimed; its vid is not dropped, since the
        live chain of that vid survives."""
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        t.commit()
        for value in ("bad", "worse"):
            t = mgr.begin()
            store.update(t, rid, (1, value))
            t.abort()
        t = mgr.begin()
        store.update(t, rid, (1, "b"))
        t.commit()
        result = store.vacuum(mgr)
        assert result.dropped_vids == []
        assert rows(store) == [[(1, "b")]]
        assert store.vacuum(mgr).versions_removed == 0

    def test_delete_over_an_aborted_update_stays_deleted(self, env, kind):
        """A delete of the visible version after an aborted update is
        kept while in progress (a concurrent writer still conflicts) and
        reclaimed once committed: vacuum never brings the row back."""
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        _vid, rid = store.insert(t, (1, "a"))
        t.commit()
        t = mgr.begin()
        store.update(t, rid, (1, "bad"))
        t.abort()
        deleter = mgr.begin()
        store.delete(deleter, rid)
        store.vacuum(mgr)
        writer = mgr.begin()
        with pytest.raises(WriteConflictError):
            store.update(writer, rid, (1, "lost"))
        writer.abort()
        deleter.commit()
        store.vacuum(mgr)
        store.vacuum(mgr)
        assert store.chains() == []
        assert list(store.scan_visible(mgr.begin())) == []


class TestVacuumHeap:
    def test_chain_root_becomes_stub_and_walk_still_works(self, env):
        mgr, device, pool = env
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        table.vacuum(mgr)
        reader = mgr.begin()
        # index entries still point at the root rid; the stub must forward
        resolved = table.visible_version(reader, rid)
        assert resolved is not None and resolved[1].data == (1, "b")


class TestVacuumSias:
    def test_dead_chain_dropped_and_page_freed(self, env):
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool,
                          flush_extent_pages=1)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "x" * 3000))
        t.commit()
        t2 = mgr.begin()
        table.delete(t2, rid)
        t2.commit()
        # push versions out of the tail so pages become freeable
        t3 = mgr.begin()
        for i in range(30):
            table.insert(t3, (100 + i, "y" * 500))
        t3.commit()
        table.flush_tail()
        result = table.vacuum(mgr)
        assert vid in result.dropped_vids
        assert vid not in entries(table)

    def test_superseded_below_cutoff_detached(self, env):
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "v0"))
        t.commit()
        last = rid
        for i in range(4):
            t = mgr.begin()
            last = table.update(t, last, (1, f"v{i + 1}"))
            t.commit()
        result = table.vacuum(mgr)
        assert result.versions_removed == 4
        # chain anchor no longer links to removed predecessors
        anchor = table.fetch(entries(table)[vid])
        assert anchor.prev_rid is None

    def test_stale_chain_rid_skipped_but_storage_fault_propagates(
            self, env, monkeypatch):
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        stale = RecordID(rid.page, 999)
        table._entry[vid + 1] = stale
        result = table.vacuum(mgr)
        assert result.versions_removed == 0
        assert table._entry[vid + 1] == stale

        def fault(_rid):
            raise StorageError("device read failed")

        monkeypatch.setattr(table, "fetch", fault)
        with pytest.raises(StorageError):
            table.vacuum(mgr)

    def test_aborted_key_updates_leave_no_orphan(self, env):
        """Each update past an aborted one moves the entry point; the
        aborted versions it stepped past are chains of their own, and
        all of them go."""
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (0, "a"))
        t.commit()
        aborted = []
        for i in range(10):
            t = mgr.begin()
            aborted.append(table.update(t, rid, (i + 1, "a")))
            t.abort()
        assert table._entry == {vid: aborted[-1]}
        result = table.vacuum(mgr)
        assert sorted(result.removed_rids) == sorted(aborted)
        assert table._entry == {vid: rid} and result.dropped_vids == []
        assert table.chains() == [[(rid, table.fetch(rid))]]

    def test_no_update_past_a_run_that_holds_a_committed_version(
            self, env):
        """Reader B sees v0, C commits v1, A's v2 on top aborts: B may not
        step past the run [v1, v2], or C's write would be lost, and
        vacuum keeps the entry on v1."""
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
        t = mgr.begin()
        vid, v0 = table.insert(t, (1, "a"))
        t.commit()
        b = mgr.begin()
        c = mgr.begin()
        v1 = table.update(c, v0, (1, "c"))
        c.commit()
        a = mgr.begin()
        v2 = table.update(a, v1, (1, "bad"))
        a.abort()
        with pytest.raises(WriteConflictError):
            table.update(b, v0, (1, "b"))
        b.abort()
        assert table._entry == {vid: v2}
        table.vacuum(mgr)
        assert table._entry == {vid: v1}
        assert rows(table) == [[(1, "c")]]
        assert table._orphans == {}


class TestVacuumDelta:
    def test_unreachable_pool_pages_freed(self, env):
        mgr, device, pool = env
        table = make_store("delta", device, pool)
        rids = []
        t = mgr.begin()
        for i in range(16):
            _, rid = table.insert(t, (i, "x" * 400))
            rids.append(rid)
        t.commit()
        for round_ in range(10):
            t = mgr.begin()
            for rid in rids:
                table.update(t, rid, (round_, "y" * 400))
            t.commit()
        result = table.vacuum(mgr)
        assert result.pages_freed > 0
        reader = mgr.begin()
        for rid in rids:
            assert table.visible_version(reader, rid)[1].data == (9, "y" * 400)

    def test_stale_delta_rid_skipped_but_storage_fault_propagates(
            self, env, monkeypatch):
        mgr, device, pool = env
        table = make_store("delta", device, pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        old_reader = mgr.begin()    # keeps the cutoff below the update
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        main = table.fetch(rid)
        main.prev_rid = RecordID(main.prev_rid.page, 999)
        assert table.vacuum(mgr).versions_removed == 0

        def fault(_rid):
            raise StorageError("device read failed")

        monkeypatch.setattr(table, "_read_delta", fault)
        with pytest.raises(StorageError):
            table.vacuum(mgr)
        old_reader.commit()


class TestVacuumStatsPaths:
    """The stats-bearing corners the observability work leans on."""

    def test_heap_removed_rids_reported_for_non_roots(self, env):
        mgr, device, pool = env
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        t = mgr.begin()
        mid = table.update(t, rid, (1, "b"))
        t.commit()
        t = mgr.begin()
        table.update(t, mid, (1, "c"))
        t.commit()
        result = table.vacuum(mgr)
        # the root is pruned in place (not removed); the middle version is
        # physically removed and reported for index-level GC
        assert result.versions_removed == 2
        assert result.removed_rids == [mid]

    def test_vacuum_result_counts_consistent(self, env):
        mgr, device, pool = env
        table = SIASTable("t", PageFile("t", device, 8192, 8), pool)
        rids = {}
        t = mgr.begin()
        for i in range(10):
            vid, _ = table.insert(t, (i, "a"))
            rids[i] = vid
        t.commit()
        for i in range(0, 10, 2):
            t = mgr.begin()
            table.update(t, entries(table)[rids[i]], (i, "b"))
            t.commit()
        result = table.vacuum(mgr)
        assert result.versions_removed == len(result.removed_rids)
        assert result.versions_removed == 5

    def test_aborted_head_is_repointed_before_its_page_is_freed(self, env):
        """An aborted update leaves the entry point naming a dead version;
        vacuum must move the entry to the committed predecessor before it
        frees the page the aborted version sits on."""
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool,
                          flush_extent_pages=1)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "keep"))
        t.commit()
        table.flush_tail()
        t2 = mgr.begin()
        aborted_rid = table.update(t2, rid, (1, "x" * 7000))  # its own page
        t2.abort()
        assert aborted_rid.page != rid.page
        t3 = mgr.begin()
        table.insert(t3, (2, "y" * 7000))    # push the aborted page out
        t3.commit()
        table.flush_tail()

        assert table._entry[vid] == aborted_rid
        result = table.vacuum(mgr)
        assert table._entry[vid] == rid
        assert aborted_rid in result.removed_rids
        assert result.pages_freed == 1
        assert entries(table)[vid] == rid
        reader = mgr.begin()
        assert [row for _rid, row in table.scan_visible(reader)] \
            == [(1, "keep"), (2, "y" * 7000)]

    def test_chain_of_only_aborted_versions_is_dropped(self, env):
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool,
                          flush_extent_pages=1)
        t = mgr.begin()
        vid, _rid = table.insert(t, (1, "x" * 7000))
        t.abort()
        t2 = mgr.begin()
        table.insert(t2, (2, "k" * 7000))    # lands on the next page
        t2.commit()
        table.flush_tail()
        result = table.vacuum(mgr)
        assert result.dropped_vids == [vid] and result.pages_freed == 1
        assert vid not in entries(table)
        reader = mgr.begin()
        assert [row for _rid, row in table.scan_visible(reader)] \
            == [(2, "k" * 7000)]
