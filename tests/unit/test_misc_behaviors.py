"""Unit tests for assorted behaviours not covered elsewhere."""


from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.core.partition import PersistedPartition
from repro.core.tree import MVPBT
from repro.index.base import TOP
from repro.index.lsm.tree import LSMTree
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager
from repro.txn.snapshot import Snapshot


def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    return clock, device


class TestTopSentinel:
    def test_top_greater_than_everything(self):
        assert TOP > 10 ** 18
        assert TOP > "zzzz"
        assert not (TOP < 5)
        assert TOP >= TOP
        assert TOP == TOP
        assert TOP.__gt__(TOP) is False

    def test_tuple_comparisons_with_top(self):
        assert (1, 5) < (1, TOP)
        assert (1, TOP) < (2, 0)
        assert (1, "abc") < (1, TOP)

    def test_top_usable_in_sets(self):
        assert len({TOP, TOP}) == 1


class TestLSMLevels:
    def test_multiple_levels_form(self):
        clock, device = env()
        tree = LSMTree("l", PageFile("l", device, 1024, 8), BufferPool(256),
                       memtable_bytes=512, l0_component_limit=1,
                       level_base_bytes=1024, size_ratio=2)
        for i in range(600):
            tree.put((f"k{i:05d}",), "v" * 10)
        deep_levels = sum(1 for s in tree._levels if s is not None)
        assert deep_levels >= 2
        # data still intact at every level
        for probe in (0, 299, 599):
            assert tree.get((f"k{probe:05d}",)) == "v" * 10


class TestMinTsFilter:
    def _partition(self, min_ts, max_ts):
        clock, device = env()
        pool = BufferPool(16)
        file = PageFile("p", device, 8192, 8)
        from repro.index.runs import PersistedRun
        run = PersistedRun(file, pool, [], key_of=lambda r: r,
                           size_of=lambda r: 8)
        return PersistedPartition(number=0, run=run, bloom=None,
                                  prefix_bloom=None, min_ts=min_ts,
                                  max_ts=max_ts)

    def test_old_snapshot_skips_new_partition(self):
        part = self._partition(min_ts=100, max_ts=200)
        snap = Snapshot(owner=50, xmax=50, xmin=50)
        assert not part.possibly_visible_to(snap)

    def test_new_snapshot_sees_old_partition(self):
        part = self._partition(min_ts=10, max_ts=20)
        snap = Snapshot(owner=50, xmax=50, xmin=50)
        assert part.possibly_visible_to(snap)

    def test_own_writes_keep_partition_visible(self):
        """Regression: a partition holding only the caller's own records
        must not be skipped (owner ts == xmax fails the < test)."""
        part = self._partition(min_ts=50, max_ts=50)
        snap = Snapshot(owner=50, xmax=50, xmin=50)
        assert part.possibly_visible_to(snap)


class TestMVPBTBounds:
    def _tree(self):
        clock, device = env()
        mgr = TransactionManager(clock)
        tree = MVPBT("b", PageFile("b", device, 8192, 8), BufferPool(64),
                     PartitionBuffer(1 << 20), mgr)
        return mgr, tree

    def test_exclusive_bounds(self):
        mgr, tree = self._tree()
        t = mgr.begin()
        for i in range(10):
            tree.insert(t, (i,), RecordID(0, i), vid=i + 1)
        t.commit()
        r = mgr.begin()
        hits = tree.range_scan(r, (2,), (7,), lo_incl=False, hi_incl=False)
        assert [h.key[0] for h in hits] == [3, 4, 5, 6]

    def test_payload_flows_through_updates(self):
        mgr, tree = self._tree()
        t = mgr.begin()
        tree.insert(t, (1,), RecordID(0, 0), vid=1, payload="v0")
        t.commit()
        t2 = mgr.begin()
        tree.update_nonkey(t2, (1,), RecordID(0, 1), RecordID(0, 0), vid=1,
                           payload="v1")
        t2.commit()
        r = mgr.begin()
        assert tree.search(r, (1,))[0].payload == "v1"

    def test_search_on_empty_tree(self):
        mgr, tree = self._tree()
        r = mgr.begin()
        assert tree.search(r, (1,)) == []
        assert tree.range_scan(r, None, None) == []
        assert tree.scan_limit(r, None, 5) == []

    def test_record_count_spans_partitions(self):
        mgr, tree = self._tree()
        t = mgr.begin()
        for i in range(20):
            tree.insert(t, (i,), RecordID(0, i), vid=i + 1)
        t.commit()
        tree.evict_partition()
        t2 = mgr.begin()
        for i in range(20, 30):
            tree.insert(t2, (i,), RecordID(0, i), vid=i + 1)
        t2.commit()
        # reconciliation may merge nothing here (unique keys): exact count
        assert tree.record_count() == 30


class TestHeapFreeSpaceReuse:
    def test_vacuumed_pages_accept_new_rows(self):
        from repro.table.heap import HeapTable
        clock, device = env()
        pool = BufferPool(64)
        table = HeapTable("t", PageFile("t", device, 8192, 8), pool)
        mgr = TransactionManager(clock)
        t = mgr.begin()
        rids = [table.insert(t, (i, "x" * 400))[1] for i in range(50)]
        t.commit()
        t2 = mgr.begin()
        for rid in rids[:25]:
            table.delete(t2, rid)
        t2.commit()
        table.vacuum(mgr)
        pages_before = table.file.allocated_pages
        t3 = mgr.begin()
        for i in range(10):
            table.insert(t3, (100 + i, "y" * 400))
        t3.commit()
        # reclaimed space absorbed (few or no new pages)
        assert table.file.allocated_pages <= pages_before + 1
