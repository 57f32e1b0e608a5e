"""Tests for the streaming write path (eviction/merge/bulk-load pipeline).

The streaming build must be *equivalent by construction* to the legacy
materialise-then-sort shape: same packed pages, same fence keys, same
timestamp range, bit-identical filters.  The reference implementations below
replay the pre-streaming pipeline (materialised GC → materialised
reconciliation → sequential filter ``add`` calls → list-built run) on deep
copies of the input records and the results are compared structurally.

Also covered: the tiered auto-merge policy (partition bound, window
selection), write-amplification accounting, the REGULAR_SET merge
regression, and the unique-insert negative-lookup fast path.
"""

import copy
from types import SimpleNamespace

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.core.eviction import reconcile_records
from repro.core.gc import GCStats, collect_for_eviction
from repro.core.merge import select_merge_window
from repro.core.records import MVPBTRecord, RecordType, record_size
from repro.core.tree import MVPBT
from repro.errors import ConfigError, UniqueViolationError
from repro.index.filters import (BLOOM_FPR, PREFIX_BLOOM_FPR,
                                 BloomFilter, PrefixBloomFilter, digest)
from repro.index.runs import PersistedRun
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import INTEL_DC_P3600
from repro.storage.keycodec import encode_key
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(INTEL_DC_P3600, clock)
    pool = BufferPool(512)
    pb = PartitionBuffer(1 << 22)
    mgr = TransactionManager(clock)

    def make(name="w", **opts):
        return MVPBT(name, PageFile(name, device, 2048, 4), pool, pb, mgr,
                     **opts)
    return mgr, make, device, pool


# --------------------------------------------------------------- reference

def rec_tuple(r: MVPBTRecord) -> tuple:
    return (r.key, r.ts, r.seq, r.rtype, r.vid, r.rid_new, r.rid_old,
            r.payload, tuple(r.set_entries))


def legacy_build(tree, file, pool, records):
    """The pre-streaming partition build: materialised list in, filters and
    timestamp range computed in separate passes, run packed from the list."""
    if tree.reconcile:
        records = reconcile_records(records)
    bloom = prefix_bloom = None
    if tree.use_bloom:
        bloom = BloomFilter(len(records), BLOOM_FPR)
        for r in records:
            bloom.add(encode_key(r.key))
    arity = len(records[0].key) if records else 0
    if tree.use_bloom and arity >= 2:
        # sized by distinct prefixes, counted as a set: no reliance on the
        # stream being sorted
        prefixes = {r.key[:-1] for r in records}
        prefix_bloom = PrefixBloomFilter(len(prefixes), PREFIX_BLOOM_FPR,
                                         arity - 1)
        for prefix in prefixes:
            prefix_bloom.add_digest(*digest(encode_key(prefix)))
    all_ts = []
    for r in records:
        if r.rtype is RecordType.REGULAR_SET:
            all_ts.extend(e[2] for e in r.set_entries)
        else:
            all_ts.append(r.ts)
    run = PersistedRun(file, pool, records,
                       key_of=lambda r: r.key,
                       size_of=lambda r: record_size(r, tree.mode),
                       fill_factor=1.0)
    return SimpleNamespace(
        run=run, bloom=bloom, prefix_bloom=prefix_bloom,
        min_ts=min(all_ts) if all_ts else 0,
        max_ts=max(all_ts) if all_ts else 0)


def page_records(run):
    return [[rec_tuple(r) for r in run.file.peek(p).records]
            for p in run.page_nos]


def assert_partitions_identical(actual, reference):
    assert page_records(actual.run) == page_records(reference.run)
    assert actual.run._fences == reference.run._fences
    assert actual.run.min_key == reference.run.min_key
    assert actual.run.max_key == reference.run.max_key
    assert actual.run.record_count == reference.run.record_count
    assert actual.run.size_bytes == reference.run.size_bytes
    assert actual.min_ts == reference.min_ts
    assert actual.max_ts == reference.max_ts
    for a, b in ((actual.bloom, reference.bloom),
                 (actual.prefix_bloom, reference.prefix_bloom)):
        if b is None:
            assert a is None
            continue
        ab = a._bits if isinstance(a, BloomFilter) else a._bloom._bits
        bb = b._bits if isinstance(b, BloomFilter) else b._bloom._bits
        assert bytes(ab) == bytes(bb)
        assert a.items_added == b.items_added


def mixed_workload(mgr, ix, keys=40, held_reader=False):
    """Inserts + cross-key updates + deletes, optionally with a snapshot
    held open so GC must keep snapshot-visible versions."""
    rids = {}
    t = mgr.begin()
    for k in range(keys):
        rid = RecordID(1, k)
        ix.insert(t, (k, k % 3), rid, vid=k + 1)
        rids[k] = rid
    t.commit()
    reader = mgr.begin() if held_reader else None
    t = mgr.begin()
    for k in range(0, keys, 2):
        nrid = RecordID(2, k)
        ix.update_nonkey(t, (k, k % 3), nrid, rids[k], vid=k + 1)
        rids[k] = nrid
    for k in range(1, keys, 5):
        ix.delete(t, (k, k % 3), rids[k], vid=k + 1)
    t.commit()
    return rids, reader


class TestEvictEquivalence:
    @pytest.mark.parametrize("held_reader", [False, True])
    def test_evict_matches_legacy_build(self, env, held_reader):
        mgr, make, device, pool = env
        ix = make()
        mixed_workload(mgr, ix, held_reader=held_reader)

        frozen = [copy.deepcopy(r) for r in ix.memory_partition.iter_records()]
        actives = mgr.active_snapshots()
        part = ix.evict_partition()
        assert part is not None

        ref_records = collect_for_eviction(frozen, actives,
                                           mgr.commit_log, ix.mode, GCStats())
        scratch = PageFile("scratch-evict", device, 2048, 4)
        reference = legacy_build(ix, scratch, pool, ref_records)
        assert_partitions_identical(part, reference)

    def test_evict_with_prefix_bloom_matches_legacy(self, env):
        mgr, make, device, pool = env
        ix = make()
        # a held reader keeps old versions past GC
        mixed_workload(mgr, ix, held_reader=True)
        frozen = [copy.deepcopy(r) for r in ix.memory_partition.iter_records()]
        part = ix.evict_partition()
        ref_records = collect_for_eviction(frozen, mgr.active_snapshots(),
                                           mgr.commit_log, ix.mode, GCStats())
        scratch = PageFile("scratch-prefix", device, 2048, 4)
        reference = legacy_build(ix, scratch, pool, ref_records)
        assert_partitions_identical(part, reference)
        # the versions of one key share its prefix: one filter entry
        assert part.prefix_bloom.items_added < part.record_count

    def test_evict_accounts_write_amplification(self, env):
        mgr, make, _d, _p = env
        ix = make(enable_gc=False)
        mixed_workload(mgr, ix)
        ingested = ix.memory_partition.bytes_used
        ix.evict_partition()
        assert ix.stats.bytes_ingested == ingested
        assert ix.stats.bytes_written > 0
        assert ix.stats.write_amplification > 0.0


class TestMergeEquivalence:
    def fill(self, mgr, ix, partitions=3, rows=60, shape=lambda k: (k,)):
        rids = {}
        key = 0
        for _ in range(partitions):
            t = mgr.begin()
            for _ in range(rows):
                rid = RecordID(1, key)
                ix.insert(t, shape(key), rid, vid=key + 1)
                rids[key] = rid
                key += 1
            for upd in range(0, key, 3):
                nrid = RecordID(2, upd)
                ix.update_nonkey(t, shape(upd), nrid, rids[upd],
                                 vid=upd + 1)
                rids[upd] = nrid
            t.commit()
            ix.evict_partition()
        return rids

    def test_merge_matches_legacy_build(self, env):
        self.check_merge(env, lambda k: (k,))

    def test_merge_of_composite_keys_matches_legacy_build(self, env):
        # the merged stream is key-sorted, so the streaming prefix count
        # equals the reference's set of distinct prefixes
        merged = self.check_merge(env, lambda k: (k // 7, k))
        assert merged.prefix_bloom.items_added == -(-180 // 7)

    def check_merge(self, env, shape):
        mgr, make, device, pool = env
        ix = make()
        self.fill(mgr, ix, shape=shape)

        inputs = ix.persisted_partitions
        frozen = [copy.deepcopy(r) for p in inputs
                  for r in p.run.iter_all()]
        frozen.sort(key=MVPBTRecord.sort_key)
        actives = mgr.active_snapshots()

        merged = ix.merge_partitions()
        assert merged is not None

        ref_records = collect_for_eviction(frozen, actives,
                                           mgr.commit_log, ix.mode, GCStats())
        scratch = PageFile("scratch-merge", device, 2048, 4)
        reference = legacy_build(ix, scratch, pool, ref_records)
        assert_partitions_identical(merged, reference)
        return merged

    def test_merge_window_start(self, env):
        mgr, make, _d, _p = env
        ix = make()
        self.fill(mgr, ix, partitions=4, rows=30)
        numbers = [p.number for p in ix.persisted_partitions]
        merged = ix.merge_partitions(2, start=1)
        assert merged is not None
        got = [p.number for p in ix.persisted_partitions]
        assert got == [numbers[0], numbers[2], numbers[3]]
        assert got == sorted(got)

    def test_merge_keeps_all_reconciled_sets(self, env):
        # regression: all REGULAR_SET records share the pseudo-VID -1; the
        # pre-streaming merge chain-reduced them together and silently
        # dropped every reconciled bundle but the newest
        mgr, make, _d, _p = env
        ix = make(reconcile=True)
        for key in (1, 2):
            t = mgr.begin()
            for v in range(3):
                ix.insert(t, (key,), RecordID(1, key * 10 + v),
                          vid=key * 100 + v + 1)
            t.commit()
            ix.evict_partition()
        reader = mgr.begin()
        assert len(ix.search(reader, (1,))) == 3
        assert len(ix.search(reader, (2,))) == 3
        assert ix.merge_partitions() is not None
        assert len(ix.search(reader, (1,))) == 3
        assert len(ix.search(reader, (2,))) == 3


class TestTieredPolicy:
    def test_select_merge_window_picks_min_bytes(self):
        parts = [SimpleNamespace(size_bytes=s)
                 for s in (900, 50, 60, 800, 40, 30)]
        assert select_merge_window(parts, 2) == (4, 2)
        assert select_merge_window(parts, 3) == (3, 3)  # 800+40+30 < rest?

    def test_select_merge_window_clamps(self):
        parts = [SimpleNamespace(size_bytes=s) for s in (10, 20)]
        assert select_merge_window(parts, 5) == (0, 2)
        assert select_merge_window(parts, 1) == (0, 2)

    def test_tiered_policy_bounds_partition_count(self, env):
        mgr, make, _d, _p = env
        ix = make(max_partitions=3, merge_fanout=2)
        key = 0
        for _round in range(8):
            t = mgr.begin()
            for _ in range(40):
                ix.insert(t, (key,), RecordID(1, key), vid=key + 1)
                key += 1
            t.commit()
            ix.evict_partition()
            assert len(ix.persisted_partitions) <= 3
        assert ix.stats.merges >= 1
        # tiered merging rewrites only small windows: total physical writes
        # stay well below the merge-everything policy's quadratic blow-up
        assert ix.stats.bytes_written < 3 * ix.stats.bytes_ingested
        reader = mgr.begin()
        assert len(ix.range_scan(reader, None, None)) == key

    def test_merge_fanout_validation(self, env):
        _mgr, make, _d, _p = env
        with pytest.raises(ConfigError):
            make(merge_fanout=1)


class TestUniqueFastPath:
    def test_duplicate_in_memory_raises(self, env):
        mgr, make, _d, _p = env
        ix = make(unique=True)
        t = mgr.begin()
        ix.insert(t, (1,), RecordID(1, 1), vid=1)
        with pytest.raises(UniqueViolationError):
            ix.insert(t, (1,), RecordID(1, 2), vid=2)

    def test_duplicate_in_persisted_raises(self, env):
        mgr, make, _d, _p = env
        ix = make(unique=True)
        t = mgr.begin()
        ix.insert(t, (1,), RecordID(1, 1), vid=1)
        t.commit()
        ix.evict_partition()
        t2 = mgr.begin()
        with pytest.raises(UniqueViolationError):
            ix.insert(t2, (1,), RecordID(1, 2), vid=2)

    def test_reinsert_after_delete_allowed(self, env):
        mgr, make, _d, _p = env
        ix = make(unique=True)
        t = mgr.begin()
        ix.insert(t, (1,), RecordID(1, 1), vid=1)
        t.commit()
        ix.evict_partition()
        t2 = mgr.begin()
        ix.delete(t2, (1,), RecordID(1, 1), vid=1)
        t2.commit()
        t3 = mgr.begin()
        ix.insert(t3, (1,), RecordID(1, 2), vid=2)  # must not raise
        t3.commit()

    def test_fresh_keys_skip_search(self, env):
        mgr, make, _d, _p = env
        ix = make(unique=True)
        t = mgr.begin()
        for k in range(50):
            ix.insert(t, (k,), RecordID(1, k), vid=k + 1)
        t.commit()
        ix.evict_partition()
        t2 = mgr.begin()
        searches_before = ix.stats.searches
        fast_before = ix.stats.unique_fast_negatives
        for k in range(1000, 1050):
            ix.insert(t2, (k,), RecordID(1, k), vid=k + 1)
        # every insert took the negative-lookup fast path: the persisted
        # partition's range rules the keys out, no full search ran
        assert ix.stats.searches == searches_before
        assert ix.stats.unique_fast_negatives == fast_before + 50
        assert ix.stats.unique_checks >= 50
