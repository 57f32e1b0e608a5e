"""Unit tests for the SIAS append-only version store."""

import pytest

from repro.buffer.pool import BufferPool
from repro.errors import WriteConflictError
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import INTEL_DC_P3600
from repro.storage.pagefile import PageFile
from repro.table.sias import SIASTable
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(INTEL_DC_P3600, clock)
    pool = BufferPool(64)
    table = SIASTable("s", PageFile("s", device, 8192, 8), pool)
    return TransactionManager(clock), table, device


def entry_of(table, vid):
    """``vid``'s chain entry point: the newest rid of its listed chain."""
    return {chain[0][1].vid: chain[-1][0] for chain in table.chains()}[vid]


class TestAppendBehaviour:
    def test_versions_never_modified_in_place(self, env):
        mgr, table, _dev = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        new_rid = table.update(t, rid, (1, "b"))
        old = table.fetch(rid)
        assert old.data == (1, "a")
        assert old.ts_invalidate is None       # one-point invalidation
        assert table.fetch(new_rid).prev_rid == rid

    def test_entry_point_follows_newest(self, env):
        mgr, table, _dev = env
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        new_rid = table.update(t, rid, (1, "b"))
        assert entry_of(table, vid) == new_rid

    def test_tail_flush_is_sequential(self, env):
        mgr, table, dev = env
        t = mgr.begin()
        # fill enough pages to trigger an extent flush
        for i in range(2000):
            table.insert(t, (i, "x" * 50))
        t.commit()
        assert table.tail_flushes >= 1
        assert dev.stats.seq_writes + dev.stats.rand_writes >= 1
        # no random page rewrites happen on the append path
        assert dev.stats.rand_writes <= table.tail_flushes

    def test_fetch_from_unflushed_tail_charges_no_io(self, env):
        mgr, table, dev = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        reads_before = dev.stats.reads
        table.fetch(rid)
        assert dev.stats.reads == reads_before


class TestChains:
    def test_visible_version_walks_new_to_old(self, env):
        mgr, table, _dev = env
        t1 = mgr.begin()
        vid, rid = table.insert(t1, (1, "v0"))
        t1.commit()
        old_reader = mgr.begin()
        last = rid
        for i in range(5):
            t = mgr.begin()
            last = table.update(t, last, (1, f"v{i + 1}"))
            t.commit()
        entry = entry_of(table, vid)
        assert table.visible_version(old_reader, entry)[1].data == (1, "v0")
        fresh = mgr.begin()
        assert table.visible_version(fresh, entry)[1].data == (1, "v5")

    def test_tombstone_terminates_chain(self, env):
        mgr, table, _dev = env
        t1 = mgr.begin()
        vid, rid = table.insert(t1, (1, "a"))
        t1.commit()
        t2 = mgr.begin()
        tomb = table.delete(t2, rid)
        t2.commit()
        reader = mgr.begin()
        assert table.visible_version(reader, tomb) is None
        assert table.fetch(tomb).is_tombstone

    def test_aborted_version_skipped_in_chain(self, env):
        mgr, table, _dev = env
        t1 = mgr.begin()
        vid, rid = table.insert(t1, (1, "good"))
        t1.commit()
        t2 = mgr.begin()
        bad_rid = table.update(t2, rid, (1, "bad"))
        t2.abort()
        reader = mgr.begin()
        assert table.visible_version(reader, bad_rid)[1].data == (1, "good")

    def test_update_of_stale_version_conflicts(self, env):
        mgr, table, _dev = env
        t1 = mgr.begin()
        vid, rid = table.insert(t1, (1, "a"))
        t1.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        t2.commit()
        t3 = mgr.begin()
        with pytest.raises(WriteConflictError):
            table.update(t3, rid, (1, "c"))

    def test_update_after_aborted_successor_repoints_entry(self, env):
        mgr, table, _dev = env
        t1 = mgr.begin()
        vid, rid = table.insert(t1, (1, "a"))
        t1.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "aborted"))
        t2.abort()
        t3 = mgr.begin()
        new_rid = table.update(t3, rid, (1, "c"))
        t3.commit()
        assert entry_of(table, vid) == new_rid


class TestScan:
    def test_scan_visible_one_row_per_tuple(self, env):
        mgr, table, _dev = env
        t = mgr.begin()
        rids = {}
        for i in range(20):
            _, rids[i] = table.insert(t, (i, "v0"))
        t.commit()
        t2 = mgr.begin()
        table.update(t2, rids[3], (3, "v1"))
        table.delete(t2, rids[4])
        t2.commit()
        reader = mgr.begin()
        rows = dict((row[0], row[1]) for _rid, row in table.scan_visible(reader))
        assert len(rows) == 19
        assert rows[3] == "v1"
        assert 4 not in rows

    def test_dropped_chain_resolves_empty(self, env):
        """A candidate whose chain is gone (vacuum dropped it) names no
        tuple a snapshot can see."""
        mgr, table, _dev = env
        t = mgr.begin()
        vid, rid = table.insert(t, (1, "a"))
        t.commit()
        t = mgr.begin()
        table.delete(t, rid)
        t.commit()
        assert table.vacuum(mgr).dropped_vids == [vid]
        assert table.chains() == []
        assert table.resolve(mgr.begin(), [rid]) == []

    def test_foreign_page_is_not_reported_as_bad_rid(self, env):
        """Only a missing slot means "bad rid": a page of the wrong kind
        under the table's file is a bug and must surface as itself."""
        from repro.index.runs import RunPage
        mgr, table, _dev = env
        _, rid = table.insert(mgr.begin(), (1, "a"))
        table.flush_tail()
        table.pool.put(table.file, rid.page, RunPage([], []), dirty=False)
        with pytest.raises(AttributeError):
            table.fetch(rid)
