"""Zone-map pruning and the batched scan pipeline's skip accounting.

Covers the PR's pruning contract end to end: selective range scans skip
persisted partitions whose fence-key range is disjoint from the scan
bounds (``partitions_skipped_range`` nonzero), page-level timestamp zones
skip pages invisible to the snapshot, the zone map survives filter-block
round-trips and crash recovery, and the new counters surface in
``describe()`` / ``explain_scan``.
"""

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.config import EngineConfig
from repro.core.tree import MVPBT
from repro.durability.manifest import PartitionMeta
from repro.durability.recovery import restore_partition
from repro.engine.database import Database
from repro.index.filters import (PartitionFilters, ZoneMap, ZoneMapBuilder,
                                 decode_filter_block, filter_block_pages)
from repro.obs import ObsConfig, check_invariants
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager

from tests.reference_scan import reference_scan


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    pool = BufferPool(256)
    pb = PartitionBuffer(1 << 22)
    mgr = TransactionManager(clock)

    def make(name="ix", **opts):
        return MVPBT(name, PageFile(name, device, 8192, 8), pool, pb, mgr,
                     **opts)
    return mgr, make


def build_disjoint_partitions(mgr, make, parts=4, per=50):
    """``parts`` persisted partitions over disjoint key ranges + a P_N."""
    ix = make()
    for p in range(parts):
        t = mgr.begin()
        for i in range(p * per, (p + 1) * per):
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()
    t = mgr.begin()
    for i in range(0, parts * per, 16):
        ix.update_nonkey(t, (i,), RecordID(2, i), RecordID(1, i), vid=i + 1)
    t.commit()
    return ix


class TestPartitionPruning:
    def test_disjoint_partitions_are_skipped(self, env):
        """Regression: a selective scan must not consult partitions whose
        fence-key range is disjoint from the scan bounds."""
        mgr, make = env
        ix = build_disjoint_partitions(mgr, make)
        reader = mgr.begin()
        skipped0 = ix.stats.partitions_skipped_range
        hits = ix.range_scan(reader, (60,), (80,))
        assert [h.key[0] for h in hits] == list(range(60, 81))
        # partitions [0,50), [100,150), [150,200) are disjoint from [60,80]
        assert ix.stats.partitions_skipped_range - skipped0 == 3

    def test_full_scan_skips_nothing(self, env):
        mgr, make = env
        ix = build_disjoint_partitions(mgr, make)
        reader = mgr.begin()
        skipped0 = (ix.stats.partitions_skipped_range
                    + ix.stats.partitions_skipped_bloom
                    + ix.stats.partitions_skipped_mints)
        hits = ix.range_scan(reader, None, None)
        assert len(hits) == 200
        assert (ix.stats.partitions_skipped_range
                + ix.stats.partitions_skipped_bloom
                + ix.stats.partitions_skipped_mints) == skipped0

    def test_batch_and_record_paths_agree_on_selective_scan(self, env):
        mgr, make = env
        ix = build_disjoint_partitions(mgr, make)
        reader = mgr.begin()
        batch = ix.range_scan(reader, (60,), (80,))
        assert batch == reference_scan(ix, reader, (60,), (80,))


class TestPageZones:
    def test_pages_skipped_by_min_ts(self, env):
        """Pages whose entire timestamp zone is newer than the snapshot
        are skipped without decoding."""
        mgr, make = env
        ix = make()
        t = mgr.begin()
        for i in range(400):                    # old keys, old timestamps
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        reader = mgr.begin()                    # snapshot before the rest
        t = mgr.begin()
        for i in range(400, 800):               # new keys, newer timestamps
            ix.insert(t, (i,), RecordID(1, i), vid=i + 1)
        t.commit()
        ix.evict_partition()                    # one partition, mixed pages
        skipped0 = ix.stats.pages_skipped_mints
        hits = ix.range_scan(reader, None, None)
        assert [h.key[0] for h in hits] == list(range(400))
        assert ix.stats.pages_skipped_mints > skipped0

    def test_zone_map_built_on_eviction(self, env):
        mgr, make = env
        ix = build_disjoint_partitions(mgr, make)
        for part in ix.persisted_partitions:
            zone = part.zone_map
            assert zone is not None
            assert len(zone.page_min_ts) == part.run.page_count
            assert all(lo <= hi for lo, hi in
                       zip(zone.page_min_ts, zone.page_max_ts))
            # insert-only partitions are REGULAR/unflagged throughout
            assert all(zone.page_pure)


class TestZoneMapState:
    def test_state_roundtrip(self):
        builder = ZoneMapBuilder()
        builder.add_page(5, 20, True, 4096)
        builder.add_page(1, 99, False, 1024)
        zone = builder.build()
        again = ZoneMap.from_state(*zone.to_state())
        assert list(again.page_min_ts) == [5, 1]
        assert list(again.page_max_ts) == [20, 99]
        assert bytes(again.page_pure) == b"\x01\x00"
        assert list(again.page_bytes) == [4096, 1024]

    def test_filter_block_roundtrip(self):
        builder = ZoneMapBuilder()
        builder.add_page(3, 7, True, 512)
        zone = builder.build()
        pages = filter_block_pages(PartitionFilters(None, None, zone), 512)
        back = decode_filter_block(pages).zone_map
        assert back is not None and back.to_state() == zone.to_state()
        # an absent zone map stays absent
        pages = filter_block_pages(PartitionFilters(None, None, None), 512)
        assert decode_filter_block(pages).zone_map is None

    def test_restored_partition_prunes_like_the_original(self, env):
        """After crash recovery the zone map keeps pruning: selective
        scans on the re-attached partition skip the same pages."""
        mgr, make = env
        ix = build_disjoint_partitions(mgr, make)
        part = ix.persisted_partitions[0]
        block = ix.file.append_extents(filter_block_pages(part.filters, 8192))
        meta = PartitionMeta(
            number=part.number, record_count=part.record_count,
            size_bytes=part.size_bytes, min_ts=part.min_ts,
            max_ts=part.max_ts, page_nos=list(part.run.page_nos),
            fences=list(part.run.fence_keys), min_key=part.run.min_key,
            max_key=part.run.max_key, filter_pages=block)
        restored = restore_partition(meta, ix.file, ix.pool)
        assert restored.zone_map is not None
        assert restored.zone_map.to_state() == part.zone_map.to_state()


class TestObservabilitySurface:
    def _db(self):
        db = Database(EngineConfig(buffer_pool_pages=64,
                                   partition_buffer_bytes=4096,
                                   obs=ObsConfig(enabled=True)))
        db.create_table("t", [("k", "int"), ("v", "int")], storage="sias")
        db.create_index("ix", "t", ["k"], kind="mvpbt")
        txn = db.begin()
        for i in range(300):
            db.insert(txn, "t", (i, i * 2))
            if (i + 1) % 100 == 0:
                txn.commit()
                db.catalog.index("ix").mvpbt.evict_partition()
                txn = db.begin()
        txn.commit()
        return db

    def test_explain_scan_reports_pipeline_and_prune_reasons(self):
        db = self._db()
        txn = db.begin()
        profile = db.explain_scan(txn, "ix", (120,), (180,))
        txn.commit()
        pipeline = profile["scan_pipeline"]
        assert pipeline["pages_batch_decoded"] >= 1
        assert pipeline["zero_copy_bytes"] > 0
        reasons = profile["partitions"]["prune_reasons"]
        assert set(reasons) == {"bloom", "zone-map", "min-ts"}
        # [120,180] is disjoint from partitions [0,100) and [200,300)
        assert reasons["zone-map"] == 2
        assert (reasons["bloom"] + reasons["zone-map"] + reasons["min-ts"]
                == profile["partitions"]["total"]
                - profile["partitions"]["consulted"])

    def test_describe_read_path_and_registry_invariants(self):
        db = self._db()
        txn = db.begin()
        db.range_select(txn, "ix", (0,), (300,))
        db.range_select(txn, "ix", (250,), (280,))
        txn.commit()
        tree = db.catalog.index("ix").mvpbt
        info = tree.describe()
        read_path = info["read_path"]
        assert read_path["pages_batch_decoded"] >= 1
        assert read_path["zero_copy_bytes"] > 0
        for part in info["persisted_partitions"]:
            assert part["zone_map_bytes"] > 0
        assert check_invariants(db) == []
