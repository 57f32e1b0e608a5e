"""Unit tests for MV-PBT partition garbage collection (§4.6)."""

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.config import EngineConfig
from repro.core.tree import MVPBT
from repro.core.gc import GCStats, collect_for_eviction
from repro.core.records import MVPBTRecord, RecordType, ReferenceMode
from repro.engine.database import Database
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import INTEL_DC_P3600
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.status import CommitLog


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(INTEL_DC_P3600, clock)
    pool = BufferPool(128)
    pb = PartitionBuffer(1 << 22)
    mgr = TransactionManager(clock)

    def make(name="gc", **opts):
        return MVPBT(name, PageFile(name, device, 8192, 8), pool, pb, mgr,
                     **opts)
    return mgr, make


def grow_chain(mgr, ix, key=(5,), vid=7, updates=10):
    t = mgr.begin()
    ix.insert(t, key, RecordID(0, 0), vid=vid)
    t.commit()
    last = RecordID(0, 0)
    for i in range(updates):
        t = mgr.begin()
        nr = RecordID(0, i + 1)
        ix.update_nonkey(t, key, nr, last, vid=vid)
        last = nr
        t.commit()
    return last


class TestPhase1And2:
    def test_scan_flags_then_insert_purges(self, env):
        mgr, make = env
        ix = make()
        last = grow_chain(mgr, ix, updates=20)
        r = mgr.begin()
        ix.search(r, (5,))
        r.commit()
        assert ix.gc_stats.flagged == 20
        t = mgr.begin()
        ix.insert(t, (6,), RecordID(1, 0), vid=8)
        t.commit()
        assert ix.gc_stats.purged_page_level == 20
        assert ix.record_count() == 2   # newest of key 5 + key 6
        reader = mgr.begin()
        assert [h.rid for h in ix.search(reader, (5,))] == [last]

    def test_pinned_visible_version_never_flagged(self, env):
        """A record some active snapshot can still see is not garbage."""
        mgr, make = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (5,), RecordID(0, 0), vid=7)
        t.commit()
        pin = mgr.begin()                      # sees the initial version
        last = RecordID(0, 0)
        for i in range(10):
            t = mgr.begin()
            nr = RecordID(0, i + 1)
            ix.update_nonkey(t, (5,), nr, last, vid=7)
            last = nr
            t.commit()
        r = mgr.begin()
        ix.search(r, (5,))
        r.commit()
        # interval GC: the 9 transient replacements (created and superseded
        # during `pin`) are flagged; the pinned-visible initial version and
        # the newest replacement are not
        assert ix.gc_stats.flagged == 9
        assert [h.rid for h in ix.search(pin, (5,))] == [RecordID(0, 0)]
        fresh = mgr.begin()
        assert [h.rid for h in ix.search(fresh, (5,))] == [last]

    def test_transient_versions_purged_while_query_active(self, env):
        """The paper's headline HTAP GC case: versions created and
        superseded during a long-running query are collected while the
        query still runs."""
        mgr, make = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (5,), RecordID(0, 0), vid=7)
        t.commit()
        olap = mgr.begin()
        last = RecordID(0, 0)
        for i in range(20):
            t = mgr.begin()
            nr = RecordID(0, i + 1)
            ix.update_nonkey(t, (5,), nr, last, vid=7)
            last = nr
            t.commit()
        r = mgr.begin()
        ix.search(r, (5,))     # phase 1 flags the 19 transient records
        r.commit()
        t = mgr.begin()
        ix.insert(t, (6,), RecordID(1, 0), vid=8)  # phase 2 purges
        t.commit()
        assert ix.gc_stats.purged_page_level >= 15
        # both the old and a fresh snapshot still answer correctly
        assert [h.rid for h in ix.search(olap, (5,))] == [RecordID(0, 0)]
        fresh = mgr.begin()
        assert [h.rid for h in ix.search(fresh, (5,))] == [last]
        olap.commit()

    def test_gc_disabled(self, env):
        mgr, make = env
        ix = make(enable_gc=False)
        grow_chain(mgr, ix, updates=10)
        r = mgr.begin()
        ix.search(r, (5,))
        r.commit()
        assert ix.gc_stats.flagged == 0
        assert ix.record_count() == 11


class TestPhase3:
    def test_eviction_purges_dead_chain_tail(self, env):
        mgr, make = env
        ix = make()
        last = grow_chain(mgr, ix, updates=15)
        part = ix.evict_partition()
        assert part.record_count == 1
        assert ix.gc_stats.purged_eviction == 15
        reader = mgr.begin()
        assert [h.rid for h in ix.search(reader, (5,))] == [last]

    def test_tombstoned_chain_vanishes(self, env):
        mgr, make = env
        ix = make()
        last = grow_chain(mgr, ix, updates=3)
        t = mgr.begin()
        ix.delete(t, (5,), last, vid=7)
        t.commit()
        part = ix.evict_partition()
        assert part is None                     # nothing left to persist
        assert ix.gc_stats.chains_dropped == 1

    def test_key_update_pair_survives_gc(self, env):
        """An anti+replacement pair at the horizon must both survive:
        dropping the replacement would lose the new-key matter."""
        mgr, make = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (7,), RecordID(0, 0), vid=1)
        t.commit()
        t = mgr.begin()
        ix.update_key(t, (7,), (1,), RecordID(0, 1), RecordID(0, 0), vid=1)
        t.commit()
        ix.evict_partition()
        reader = mgr.begin()
        assert [h.rid for h in ix.search(reader, (1,))] == [RecordID(0, 1)]
        assert ix.search(reader, (7,)) == []

    def test_cross_partition_antimatter_patch(self, env):
        """Victims' predecessor pointers are inherited so invalidation still
        reaches records in older partitions (physical mode, phase-3 patch)."""
        mgr, make = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (5,), RecordID(0, 0), vid=7)
        t.commit()
        ix.evict_partition()                   # regular now in old partition
        last = RecordID(0, 0)
        for i in range(5):
            t = mgr.begin()
            nr = RecordID(0, i + 1)
            ix.update_nonkey(t, (5,), nr, last, vid=7)
            last = nr
            t.commit()
        part = ix.evict_partition()            # GC keeps newest replacement
        assert part.record_count == 1
        reader = mgr.begin()
        hits = ix.search(reader, (5,))
        assert [h.rid for h in hits] == [last]  # old regular must NOT surface

    def test_aborted_records_dropped(self, env):
        mgr, make = env
        ix = make()
        t = mgr.begin()
        ix.insert(t, (5,), RecordID(0, 0), vid=7)
        t.abort()
        part = ix.evict_partition()
        assert part is None


class TestKeyChangeChain:
    """A chain that changed index key is reduced per VID, but a point
    lookup sees only its own key's records: the ANTI left at the old key
    must still reach the version it shadows after the versions between
    them are purged."""

    @staticmethod
    def moved_row(storage):
        """Row 1 updated, moved to key 0, then both key-0 rows updated,
        while a snapshot from before holds row 1's first version."""
        db = Database(EngineConfig(buffer_pool_pages=128))
        db.create_table("r", [("a", "int"), ("b", "str")], storage=storage)
        db.create_index("ix", "r", ["a"])
        t = db.begin()
        db.insert(t, "r", (0, "v0"))
        db.insert(t, "r", (1, "v1"))
        t.commit()
        held = db.begin()
        t = db.begin()
        db.update_by_key(t, "ix", (1,), {"b": "x"})
        db.update_by_key(t, "ix", (1,), {"a": 0})
        db.update_by_key(t, "ix", (0,), {"b": "y"})
        t.commit()
        return db, held

    @pytest.mark.parametrize("storage", ["sias", "heap"])
    def test_phase2_purge_keeps_the_old_key_dead(self, storage):
        db, held = self.moved_row(storage)
        t = db.begin()                   # its insert purges the flagged chain
        db.update_by_key(t, "ix", (0,), {"b": "z"})
        t.abort()
        fresh = db.begin()
        assert db.select(fresh, "ix", (1,)) == []
        assert db.select(fresh, "ix", (0,)) == [(0, "y"), (0, "y")]
        assert db.select(held, "ix", (1,)) == [(1, "v1")]
        assert db.select(held, "ix", (0,)) == [(0, "v0")]
        assert db.catalog.index("ix").mvpbt.gc_stats.purged_page_level

    @pytest.mark.parametrize("storage", ["sias", "heap"])
    def test_eviction_keeps_the_old_key_dead(self, storage):
        db, held = self.moved_row(storage)
        tree = db.catalog.index("ix").mvpbt
        tree.evict_partition()
        assert tree.gc_stats.purged_eviction
        fresh = db.begin()
        assert db.select(fresh, "ix", (1,)) == []
        assert db.select(held, "ix", (1,)) == [(1, "v1")]
        assert db.range_select(fresh, "ix", None, None) == [(0, "y"),
                                                            (0, "y")]


class TestCollectForEviction:
    """Direct tests of the phase-3 algorithm."""

    def _log(self, committed):
        log = CommitLog()
        for ts in committed:
            log.register(ts)
            log.set_committed(ts)
        return log

    def test_keeps_records_above_cutoff(self):
        log = self._log([1, 2, 3])
        records = [
            MVPBTRecord((5,), 3, 3, RecordType.REPLACEMENT, 1,
                        rid_new=RecordID(0, 3), rid_old=RecordID(0, 2)),
            MVPBTRecord((5,), 2, 2, RecordType.REPLACEMENT, 1,
                        rid_new=RecordID(0, 2), rid_old=RecordID(0, 1)),
            MVPBTRecord((5,), 1, 1, RecordType.REGULAR, 1,
                        rid_new=RecordID(0, 1)),
        ]
        stats = GCStats()
        # an active snapshot whose window lands on ts=2
        snap = Snapshot(owner=99, xmax=3, active=frozenset(), xmin=3)
        out = collect_for_eviction(list(records), [snap], log,
                                   ReferenceMode.PHYSICAL, stats)
        # future keeps ts=3; the snapshot keeps ts=2; ts=1 is the victim
        assert {r.ts for r in out} == {3, 2}

    def test_lone_anti_matter_preserved(self):
        log = self._log([2])
        records = [MVPBTRecord((7,), 2, 2, RecordType.ANTI, 1,
                               rid_old=RecordID(0, 0))]
        stats = GCStats()
        out = collect_for_eviction(list(records), [], log,
                                   ReferenceMode.PHYSICAL, stats)
        assert len(out) == 1   # still needed to kill older partitions

    def test_tombstone_kept_when_chain_rooted_elsewhere(self):
        log = self._log([5])
        records = [MVPBTRecord((7,), 5, 5, RecordType.TOMBSTONE, 1,
                               rid_old=RecordID(0, 3))]
        stats = GCStats()
        out = collect_for_eviction(list(records), [], log,
                                   ReferenceMode.PHYSICAL, stats)
        assert len(out) == 1
        assert stats.chains_dropped == 0
