"""Unit tests for partition eviction (Algorithm 4)."""

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.core.eviction import reconcile_records
from repro.core.records import MVPBTRecord, RecordType
from repro.core.tree import MVPBT
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import INTEL_DC_P3600
from repro.sim.trace import IOTrace
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    trace = IOTrace()
    device = SimulatedDevice(INTEL_DC_P3600, clock, trace)
    pool = BufferPool(128)
    pb = PartitionBuffer(1 << 22)
    mgr = TransactionManager(clock)

    def make(name="ev", **opts):
        return MVPBT(name, PageFile(name, device, 8192, 8), pool, pb, mgr,
                     **opts)
    return mgr, make, device, trace


class TestEviction:
    def test_partition_becomes_immutable_and_searchable(self, env):
        mgr, make, _d, _t = env
        ix = make()
        t = mgr.begin()
        for i in range(200):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        part = ix.evict_partition()
        assert part is not None
        assert part.record_count == 200
        assert ix.memory_partition.record_count == 0
        assert ix.memory_partition.number == part.number + 1
        reader = mgr.begin()
        assert [h.rid for h in ix.search(reader, (42,))] == [RecordID(1, 42)]

    def test_eviction_write_pattern_is_sequential(self, env):
        """The Figure 12c observable."""
        mgr, make, _d, trace = env
        ix = make()
        t = mgr.begin()
        for i in range(3000):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        trace.enable()
        part = ix.evict_partition()
        trace.disable()
        writes = trace.entries("W")
        assert part.run.page_count >= 8
        assert len(writes) >= 2
        assert trace.sequential_fraction("W") >= 0.9

    def test_dense_packing_beats_memory_fill(self, env):
        """Persisted partitions pack to ~100%; P_N leaves average ~67%."""
        mgr, make, _d, _t = env
        ix = make()
        t = mgr.begin()
        for i in range(3000):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        mem_leaves = ix.memory_partition.leaf_count
        part = ix.evict_partition()
        assert part.run.page_count < mem_leaves

    def test_empty_partition_eviction_is_noop(self, env):
        _mgr, make, _d, _t = env
        ix = make()
        assert ix.evict_partition() is None
        assert ix.partition_count == 1

    def test_metadata_timestamps(self, env):
        mgr, make, _d, _t = env
        ix = make()
        t1 = mgr.begin()
        ix.insert(t1, (1,), RecordID(0, 0), vid=1)
        t1.commit()
        t2 = mgr.begin()
        ix.insert(t2, (2,), RecordID(0, 1), vid=2)
        t2.commit()
        part = ix.evict_partition()
        assert part.min_ts == t1.id
        assert part.max_ts == t2.id

    def test_filters_built_on_eviction(self, env):
        mgr, make, _d, _t = env
        ix = make()
        t = mgr.begin()
        for i in range(100):
            ix.insert(t, (i, i * 2), RecordID(0, i), vid=i + 1)
        t.commit()
        part = ix.evict_partition()
        assert part.bloom is not None and part.bloom.items_added == 100
        assert part.prefix_bloom is not None
        assert part.prefix_bloom.prefix_columns == 1

    def test_prefix_filter_sized_by_distinct_prefixes(self, env):
        mgr, make, _d, _t = env
        ix = make()
        t = mgr.begin()
        for i in range(300):
            ix.insert(t, (i // 10, i % 10, i), RecordID(0, i), vid=i + 1)
        t.commit()
        part = ix.evict_partition()
        # arity 3: the filter covers (a, b), one entry per distinct pair
        assert part.prefix_bloom.prefix_columns == 2
        assert part.prefix_bloom.items_added == 300
        t = mgr.begin()
        for i in range(300):
            ix.insert(t, (1000 + i // 30, i % 2, i), RecordID(1, i),
                      vid=1000 + i)
        t.commit()
        part = ix.evict_partition()
        assert part.prefix_bloom.items_added == 20
        assert part.prefix_bloom.size_bytes < part.bloom.size_bytes / 10

    def test_one_column_keys_build_no_prefix_filter(self, env):
        mgr, make, _d, _t = env
        ix = make()
        t = mgr.begin()
        for i in range(100):
            ix.insert(t, (i,), RecordID(0, i), vid=i + 1)
        t.commit()
        part = ix.evict_partition()
        assert part.bloom is not None
        assert part.prefix_bloom is None

    def test_no_filters_ablation_builds_neither_filter(self, env):
        mgr, make, _d, _t = env
        ix = make(use_bloom=False)
        t = mgr.begin()
        for i in range(100):
            ix.insert(t, (i, i * 2), RecordID(0, i), vid=i + 1)
        t.commit()
        part = ix.evict_partition()
        assert part.bloom is None and part.prefix_bloom is None

    def test_partition_buffer_triggers_eviction(self, env):
        mgr, make, _d, _t = env
        pb = PartitionBuffer(2 * 8192)
        ix = MVPBT("small", PageFile("small", _d, 8192, 8),
                   BufferPool(64), pb, mgr)
        t = mgr.begin()
        for i in range(2000):
            ix.insert(t, (i,), RecordID(0, i), vid=i + 1)
        t.commit()
        assert ix.stats.evictions >= 1
        assert pb.evictions >= 1


class TestReconciliation:
    def _regular(self, key, ts, seq, vid):
        return MVPBTRecord((key,), ts, seq, RecordType.REGULAR, vid,
                           rid_new=RecordID(0, seq))

    def test_same_key_regulars_merged(self):
        records = [self._regular(7, ts, ts, ts) for ts in (3, 2, 1)]
        out = reconcile_records(records)
        assert len(out) == 1
        assert out[0].rtype is RecordType.REGULAR_SET
        assert [e[2] for e in out[0].set_entries] == [3, 2, 1]

    def test_single_records_untouched(self):
        records = [self._regular(k, 1, k, k) for k in (1, 2, 3)]
        out = reconcile_records(records)
        assert out == records

    def test_mixed_group_not_merged(self):
        records = [
            MVPBTRecord((7,), 3, 3, RecordType.TOMBSTONE, 2,
                        rid_old=RecordID(0, 2)),
            self._regular(7, 2, 2, 2),
            self._regular(7, 1, 1, 1),
        ]
        out = reconcile_records(records)
        assert len(out) == 3   # ordering-sensitive group is kept verbatim

    def test_end_to_end_set_search(self, env):
        mgr, make, _d, _t = env
        ix = make()   # non-unique: reconciliation on
        t = mgr.begin()
        for i in range(8):
            ix.insert(t, (77,), RecordID(5, i), vid=200 + i)
        t.commit()
        part = ix.evict_partition()
        assert part.record_count == 1
        reader = mgr.begin()
        hits = ix.search(reader, (77,))
        assert len(hits) == 8
        # a tombstone for one set member hides exactly that member
        t2 = mgr.begin()
        ix.delete(t2, (77,), RecordID(5, 3), vid=203)
        t2.commit()
        reader2 = mgr.begin()
        hits2 = ix.search(reader2, (77,))
        assert len(hits2) == 7
        assert RecordID(5, 3) not in {h.rid for h in hits2}

    def test_reconcile_disabled_for_unique(self, env):
        mgr, make, _d, _t = env
        ix = make(unique=True)
        assert not ix.reconcile
