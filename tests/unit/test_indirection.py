"""Unit tests for the VID map (paper §3.5) every version store keeps."""

import pytest

from repro.buffer.pool import BufferPool
from repro.config import CostModel
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
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


def map_clock():
    """A clock that prices one map operation at one second."""
    return SimClock(cost=CostModel(indirection_lookup=1.0))


@pytest.mark.parametrize("kind", ["heap", "sias", "delta"])
class TestVidMap:
    def test_insert_maps_the_vid_to_its_first_version(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        t.commit()
        assert store._entry == {vid: rid}

    def test_only_a_sias_entry_moves_with_a_write(self, env, kind):
        """SIAS is entered at its newest version; a heap chain at its
        root and a delta row at its main row, which stay put."""
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        t.commit()
        t = mgr.begin()
        new_rid = store.update(t, rid, (1, "b"))
        t.commit()
        t = mgr.begin()
        del_rid = store.delete(t, new_rid)
        t.commit()
        assert store._entry == {vid: del_rid if kind == "sias" else rid}

    def test_unknown_vid_resolves_to_nothing(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        vid, _rid = store.insert(t, (1, "a"))
        t.commit()
        resolved = store.resolve(mgr.begin(), [vid + 1, vid], True)
        assert [version.data for _rid, version in resolved] == [(1, "a")]

    def test_vacuum_drops_an_emptied_vid(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        gone, rid = store.insert(t, (1, "a"))
        kept, _rid = store.insert(t, (2, "b"))
        t.commit()
        t = mgr.begin()
        store.delete(t, rid)
        t.commit()
        assert store.vacuum(mgr).dropped_vids == [gone]
        assert list(store._entry) == [kept]

    def test_the_first_logical_index_pays_the_build(self, env, kind):
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        clock = map_clock()
        store.charge_vid_map(clock, 3)    # the build: one write per chain
        assert clock.now == 3.0
        store.charge_vid_map(clock, 3)    # a second logical index
        assert clock.now == 3.0

    def test_writes_and_resolves_charge_one_lookup_each(self, env, kind):
        """An insert writes the map, an update or delete only on SIAS;
        each distinct VID a resolve asks for is one read."""
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        clock = map_clock()
        store.charge_vid_map(clock, 0)
        t = mgr.begin()
        vid, rid = store.insert(t, (1, "a"))
        assert clock.now == 1.0
        new_rid = store.update(t, rid, (1, "b"))
        store.delete(t, new_rid)
        t.commit()
        moves = 2 if kind == "sias" else 0
        assert clock.now == 1.0 + moves
        store.resolve(mgr.begin(), [vid, vid, vid + 1], True)
        assert clock.now == 3.0 + moves

    def test_vacuum_charges_its_drops_and_moves(self, env, kind):
        """One charge per vid the pass drops and per entry it moves off
        an aborted head (SIAS only)."""
        mgr, device, pool = env
        store = make_store(kind, device, pool)
        t = mgr.begin()
        gone, gone_rid = store.insert(t, (1, "a"))
        moved, rid = store.insert(t, (2, "b"))
        t.commit()
        t = mgr.begin()
        store.delete(t, gone_rid)
        t.commit()
        t = mgr.begin()
        aborted = store.update(t, rid, (2, "bad"))
        t.abort()
        assert store._entry[moved] == (aborted if kind == "sias" else rid)
        clock = map_clock()
        store.charge_vid_map(clock, 0)
        store.vacuum(mgr)
        assert store._entry == {moved: rid}
        assert clock.now == (2.0 if kind == "sias" else 1.0)
