"""Unit tests for the delta-record version store (paper §3.1 alternative)."""

import pytest

from repro.buffer.pool import BufferPool
from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import TupleNotFoundError, WriteConflictError
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.table.delta import DeltaTable
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    pool = BufferPool(64)
    table = DeltaTable("d", PageFile("d", device, 8192, 8),
                       PageFile("d.pool", device, 8192, 8), pool)
    return TransactionManager(clock), table


class TestInPlaceSemantics:
    def test_update_keeps_rid_stable(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        new_rid = table.update(t, rid, (1, "b"))
        assert new_rid == rid
        assert table.fetch(rid).data == (1, "b")

    def test_delta_captures_only_changed_columns(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a", 3.0))
        table.update(t, rid, (1, "b", 3.0))
        t.commit()
        main = table.fetch(rid)
        delta = table._read_delta(main.prev_rid)
        assert delta.old_values == {1: "a"}

    def test_write_conflict_detected(self, env):
        mgr, table = env
        t1 = mgr.begin()
        _, rid = table.insert(t1, (1, "a"))
        t1.commit()
        t2 = mgr.begin()
        t3 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        with pytest.raises(WriteConflictError):
            table.update(t3, rid, (1, "c"))

    def test_update_deleted_tuple_rejected(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        table.delete(t, rid)
        with pytest.raises(TupleNotFoundError):
            table.update(t, rid, (1, "b"))


class TestReconstruction:
    def test_old_snapshot_reconstructs_old_version(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "v0", 10.0))
        t.commit()
        reader = mgr.begin()
        for i in range(5):
            t = mgr.begin()
            table.update(t, rid, (1, f"v{i + 1}", 10.0 + i))
            t.commit()
        resolved = table.visible_version(reader, rid)
        assert resolved is not None
        assert resolved[1].data == (1, "v0", 10.0)
        assert table.reconstructions == 1
        assert table.deltas_applied == 5     # the §3.6 reconstruction cost

    def test_intermediate_snapshots(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "v0"))
        t.commit()
        snaps = []
        for i in range(4):
            snaps.append(mgr.begin())
            t = mgr.begin()
            table.update(t, rid, (1, f"v{i + 1}"))
            t.commit()
        for i, snap in enumerate(snaps):
            assert table.visible_version(snap, rid)[1].data == (1, f"v{i}")

    def test_deleted_tuple_invisible_to_new_visible_to_old(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        old_reader = mgr.begin()
        t2 = mgr.begin()
        table.delete(t2, rid)
        t2.commit()
        new_reader = mgr.begin()
        assert table.visible_version(new_reader, rid) is None
        assert table.visible_version(old_reader, rid)[1].data == (1, "a")

    def test_uncommitted_update_invisible(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "a"))
        t.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "b"))
        reader = mgr.begin()
        assert table.visible_version(reader, rid)[1].data == (1, "a")
        assert table.visible_version(t2, rid)[1].data == (1, "b")


class TestVacuumDelta:
    def test_unreachable_deltas_cut(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "v0"))
        t.commit()
        for i in range(10):
            t = mgr.begin()
            table.update(t, rid, (1, f"v{i + 1}"))
            t.commit()
        result = table.vacuum(mgr)
        assert result.versions_removed >= 1
        main = table.fetch(rid)
        assert main.prev_rid is None     # chain fully trimmed (no readers)
        fresh = mgr.begin()
        assert table.visible_version(fresh, rid)[1].data == (1, "v10")

    def test_active_reader_blocks_trim(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "v0"))
        t.commit()
        reader = mgr.begin()
        for i in range(5):
            t = mgr.begin()
            table.update(t, rid, (1, f"v{i + 1}"))
            t.commit()
        table.vacuum(mgr)
        assert table.visible_version(reader, rid)[1].data == (1, "v0")


class TestEngineIntegration:
    def _db(self, kind="btree"):
        db = Database(EngineConfig(buffer_pool_pages=128))
        db.create_table("r", [("a", "int"), ("b", "str")], storage="delta")
        db.create_index("ix", "r", ["a"], kind=kind)
        return db

    def test_figure10_lifecycle_on_delta_storage(self):
        for kind in ("btree", "pbt", "mvpbt"):
            db = self._db(kind)
            t = db.begin()
            db.insert(t, "r", (7, "V0"))
            t.commit()
            txr = db.begin()
            t1 = db.begin()
            assert db.update_by_key(t1, "ix", (7,), {"b": "V1"}) == 1
            t1.commit()
            t2 = db.begin()
            assert db.update_by_key(t2, "ix", (7,), {"a": 1}) == 1
            t2.commit()
            t3 = db.begin()
            assert db.delete_by_key(t3, "ix", (1,)) == 1
            t3.commit()
            assert db.select(txr, "ix", (7,)) == [(7, "V0")], kind
            assert db.count_range(txr, "ix", None, (10,)) == 1, kind
            fresh = db.begin()
            assert db.count_range(fresh, "ix", None, (10,)) == 0, kind

    def test_nonkey_updates_need_no_index_maintenance(self):
        db = self._db("btree")
        t = db.begin()
        db.insert(t, "r", (1, "x"))
        t.commit()
        ix = db.catalog.index("ix").index
        entries_before = ix.entry_count()
        for i in range(10):
            t = db.begin()
            db.update_by_key(t, "ix", (1,), {"b": f"v{i}"})
            t.commit()
        assert ix.entry_count() == entries_before    # rid stable: no entries

    def test_vacuum_via_engine(self):
        db = self._db()
        t = db.begin()
        db.insert(t, "r", (1, "x"))
        t.commit()
        for i in range(5):
            t = db.begin()
            db.update_by_key(t, "ix", (1,), {"b": f"v{i}"})
            t.commit()
        result = db.vacuum("r")
        assert result.versions_removed >= 1


class TestUndoOnAbort:
    def test_aborted_update_rolled_back_lazily(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "good"))
        t.commit()
        t2 = mgr.begin()
        table.update(t2, rid, (1, "aborted-garbage"))
        t2.abort()
        # the next writer restores the committed state and proceeds
        t3 = mgr.begin()
        table.update(t3, rid, (1, "after-abort"))
        t3.commit()
        fresh = mgr.begin()
        assert table.visible_version(fresh, rid)[1].data == (1, "after-abort")

    def test_aborted_delete_rolled_back(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "keep"))
        t.commit()
        t2 = mgr.begin()
        table.delete(t2, rid)
        t2.abort()
        t3 = mgr.begin()
        table.update(t3, rid, (1, "still-here"))   # must not raise
        t3.commit()
        fresh = mgr.begin()
        assert table.visible_version(fresh, rid)[1].data == (1, "still-here")

    def test_chained_aborts_unwind_fully(self, env):
        mgr, table = env
        t = mgr.begin()
        _, rid = table.insert(t, (1, "base"))
        t.commit()
        for i in range(3):
            t = mgr.begin()
            table.update(t, rid, (1, f"doomed-{i}"))
            t.abort()
        reader = mgr.begin()
        assert table.visible_version(reader, rid)[1].data == (1, "base")
        t = mgr.begin()
        table.update(t, rid, (1, "winner"))
        t.commit()
        fresh = mgr.begin()
        assert table.visible_version(fresh, rid)[1].data == (1, "winner")


def test_foreign_page_is_not_reported_as_bad_rid(env):
    """Only a missing slot means "bad rid" / "bad delta": a page of the
    wrong kind under either file is a bug and must surface as itself."""
    from repro.index.runs import RunPage
    mgr, table = env
    t = mgr.begin()
    _, rid = table.insert(t, (1, "a"))
    table.update(t, rid, (1, "b"))
    delta_rid = table.fetch(rid).prev_rid
    table._pool_current = None      # read the delta through the pool
    table.pool.put(table.pool_file, delta_rid.page, RunPage([], []),
                   dirty=False)
    with pytest.raises(AttributeError):
        table._read_delta(delta_rid)
    table.pool.put(table.file, rid.page, RunPage([], []), dirty=False)
    with pytest.raises(AttributeError):
        table.fetch(rid)
