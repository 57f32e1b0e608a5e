"""Unit tests for tuple-level garbage collection (vacuum)."""

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
from repro.table.vacuum import vacuum_heap, vacuum_sias
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    return TransactionManager(clock), device, BufferPool(128)


class TestVacuumHeap:
    def test_superseded_versions_removed(self, env):
        mgr, device, pool = env
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        for i in range(5):
            t = mgr.begin()
            resolved = table.visible_version(t, rid)
            table.update(t, resolved[0], (1, f"v{i}"))
            t.commit()
        result = vacuum_heap(table, mgr)
        assert result.versions_removed == 5
        reader = mgr.begin()
        resolved = table.visible_version(reader, rid)
        assert resolved is not None and resolved[1].data == (1, "v4")

    def test_versions_visible_to_active_snapshot_kept(self, env):
        mgr, device, pool = env
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        old_reader = mgr.begin()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        result = vacuum_heap(table, mgr)
        assert result.versions_removed == 0
        assert table.visible_version(old_reader, rid)[1].data == (1, "a")

    def test_aborted_versions_removed(self, env):
        mgr, device, pool = env
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.abort()
        result = vacuum_heap(table, mgr)
        assert result.versions_removed == 1

    def test_chain_root_becomes_stub_and_walk_still_works(self, env):
        mgr, device, pool = env
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        vacuum_heap(table, mgr)
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
        result = vacuum_sias(table, mgr)
        assert vid in result.dropped_vids
        assert vid not in dict(table.chain_entries())

    def test_old_snapshot_blocks_reclamation(self, env):
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        reader = mgr.begin()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        result = vacuum_sias(table, mgr)
        assert result.versions_removed == 0
        entry = dict(table.chain_entries())[vid]
        assert table.visible_version(reader, entry)[1].data == (1, "a")

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
        result = vacuum_sias(table, mgr)
        assert result.versions_removed == 4
        # chain anchor no longer links to removed predecessors
        anchor = table.fetch(dict(table.chain_entries())[vid])
        assert anchor.prev_rid is None

    def test_aborted_versions_collected(self, env):
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "bad"))
        t2.abort()
        result = vacuum_sias(table, mgr)
        assert result.versions_removed >= 1

    def test_stale_chain_rid_skipped_but_storage_fault_propagates(
            self, env, monkeypatch):
        mgr, device, pool = env
        table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        table.register_chain(vid + 1, RecordID(rid.page, 999))
        result = vacuum_sias(table, mgr)
        assert result.versions_removed == 0
        assert vid + 1 in dict(table.chain_entries())

        def fault(_rid):
            raise StorageError("device read failed")

        monkeypatch.setattr(table, "fetch", fault)
        with pytest.raises(StorageError):
            vacuum_sias(table, mgr)


class TestVacuumDelta:
    def make_table(self, device, pool):
        from repro.table.delta import DeltaTable
        return DeltaTable("t", PageFile("t:main", device, 8192, 8),
                          PageFile("t:pool", device, 8192, 8), pool)

    def test_chain_trimmed_below_cutoff(self, env):
        from repro.table.vacuum import vacuum_delta
        mgr, device, pool = env
        table = self.make_table(device, pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        for i in range(5):
            t = mgr.begin()
            table.update(t, rid, (1, f"v{i}"))
            t.commit()
        result = vacuum_delta(table, mgr)
        assert result.versions_removed >= 1
        reader = mgr.begin()
        assert table.visible_version(reader, rid)[1].data == (1, "v4")
        # a second pass finds nothing more to trim
        assert vacuum_delta(table, mgr).versions_removed == 0

    def test_old_snapshot_blocks_trim(self, env):
        from repro.table.vacuum import vacuum_delta
        mgr, device, pool = env
        table = self.make_table(device, pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        old_reader = mgr.begin()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        vacuum_delta(table, mgr)
        # the old snapshot still reconstructs its version from the delta
        assert table.visible_version(old_reader, rid)[1].data == (1, "a")
        fresh = mgr.begin()
        assert table.visible_version(fresh, rid)[1].data == (1, "b")

    def test_unreachable_pool_pages_freed(self, env):
        from repro.table.vacuum import vacuum_delta
        mgr, device, pool = env
        table = self.make_table(device, pool)
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
        result = vacuum_delta(table, mgr)
        assert result.pages_freed > 0
        reader = mgr.begin()
        for rid in rids:
            assert table.visible_version(reader, rid)[1].data == (9, "y" * 400)


    def test_stale_delta_rid_skipped_but_storage_fault_propagates(
            self, env, monkeypatch):
        from repro.table.vacuum import vacuum_delta
        mgr, device, pool = env
        table = self.make_table(device, pool)
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        old_reader = mgr.begin()    # keeps the cutoff below the update
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        main = table.fetch(rid)
        main.prev_rid = RecordID(main.prev_rid.page, 999)
        assert vacuum_delta(table, mgr).versions_removed == 0

        def fault(_rid):
            raise StorageError("device read failed")

        monkeypatch.setattr(table, "_read_delta", fault)
        with pytest.raises(StorageError):
            vacuum_delta(table, mgr)
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
        result = vacuum_heap(table, mgr)
        # the root is pruned in place (not removed); the middle version is
        # physically removed and reported for index-level GC
        assert result.versions_removed == 2
        assert result.removed_rids == [mid]

    def test_sias_dropped_vids_reported(self, env):
        mgr, device, pool = env
        table = SIASTable("t", PageFile("t", device, 8192, 8), pool)
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        t = mgr.begin()
        table.delete(t, dict(table.chain_entries())[vid])
        t.commit()
        mgr.begin().commit()  # advance the cutoff past the delete
        result = vacuum_sias(table, mgr)
        assert result.dropped_vids == [vid]
        assert rid in result.removed_rids
        assert vid not in dict(table.chain_entries())

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
            table.update(t, dict(table.chain_entries())[rids[i]], (i, "b"))
            t.commit()
        result = vacuum_sias(table, mgr)
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

        result = vacuum_sias(table, mgr)
        assert result.repointed == {vid: rid}
        assert aborted_rid in result.removed_rids
        assert result.pages_freed == 1
        assert dict(table.chain_entries())[vid] == rid
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
        result = vacuum_sias(table, mgr)
        assert result.dropped_vids == [vid] and result.pages_freed == 1
        assert vid not in dict(table.chain_entries())
        reader = mgr.begin()
        assert [row for _rid, row in table.scan_visible(reader)] \
            == [(2, "k" * 7000)]
