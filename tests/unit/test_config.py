"""Unit tests for configuration validation."""

from dataclasses import fields

import pytest

from repro.buffer.pool import BufferPool
from repro.config import CostModel, EngineConfig
from repro.core.records import ReferenceMode
from repro.core.visibility import VisibilityChecker
from repro.engine.database import Database
from repro.errors import ConfigError
from repro.index.lsm.tree import LSMTree
from repro.index.pbt import PartitionedBTree
from repro.obs import ObsConfig
from repro.serve import ServeConfig
from repro.shard import ShardConfig
from repro.sim.clock import SimClock
from repro.table.indirection import IndirectionLayer
from repro.txn.manager import TransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.status import CommitLog


class TestEngineConfig:
    def test_defaults_valid(self):
        cfg = EngineConfig()
        assert cfg.page_size == 8192

    def test_page_size_too_small(self):
        with pytest.raises(ConfigError):
            EngineConfig(page_size=256)

    def test_extent_pages_positive(self):
        with pytest.raises(ConfigError):
            EngineConfig(extent_pages=0)

    def test_buffer_pool_minimum(self):
        with pytest.raises(ConfigError):
            EngineConfig(buffer_pool_pages=4)

    def test_option_surface_is_pinned(self):
        """Every field is one more configuration to test: a new one (or
        a deleted one coming back) has to change this list."""
        assert [f.name for f in fields(EngineConfig)] == [
            "page_size", "extent_pages", "buffer_pool_pages",
            "partition_buffer_bytes", "cost", "durability",
            "manifest_slot_pages", "obs"]
        assert [f.name for f in fields(ServeConfig)] == [
            "max_sessions", "scan_slice_rows"]
        assert [f.name for f in fields(ShardConfig)] == [
            "shards", "hash_slots"]
        assert [f.name for f in fields(ObsConfig)] == ["enabled", "tracing"]
        with pytest.raises(TypeError):
            EngineConfig(seed=7)    # read nowhere, deleted
        with pytest.raises(TypeError):
            ServeConfig(parallel_scatter_gather=True)    # deleted
        with pytest.raises(TypeError):
            ServeConfig(group_commit=False)    # deleted

    @pytest.mark.parametrize("build", [
        lambda: TransactionManager(cost=CostModel()),
        lambda: BufferPool(8, cost=CostModel()),
        lambda: IndirectionLayer(cost=CostModel()),
        lambda: PartitionedBTree("p", None, None, None, cost=CostModel()),
        lambda: LSMTree("l", None, None, cost=CostModel()),
        lambda: VisibilityChecker(Snapshot(owner=1, xmax=1), CommitLog(),
                                  ReferenceMode.PHYSICAL, cost=CostModel()),
        lambda: BufferPool(8, policy=None),
        lambda: Database(clock=SimClock()),
        lambda: VisibilityChecker(Snapshot(owner=1, xmax=1), CommitLog(),
                                  ReferenceMode.PHYSICAL, cutoff=5),
    ], ids=["manager-cost", "pool-cost", "indirection-cost", "pbt-cost",
            "lsm-cost", "checker-cost", "pool-policy", "database-clock",
            "checker-cutoff"])
    def test_components_take_no_price_list(self, build):
        """The clock carries the one price list: no component takes its
        own, the pool takes no replacement policy, the engine builds its
        own clock, and garbage follows only from the active snapshots."""
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: ShardConfig(partitioning="hash"),
        lambda: ShardConfig(range_cuts=[]),
        lambda: ObsConfig(metrics=True),
        lambda: ObsConfig(trace_capacity=8),
        lambda: Database.recover(None, extra_committed=set()),
        lambda: Database.recover(None, txid_floor=1),
        lambda: ServeConfig(group_size_target=8),
        lambda: ServeConfig(group_window_s=0.004),
    ], ids=["shard-partitioning", "shard-range-cuts", "obs-metrics",
            "obs-trace-capacity", "recover-extra-committed",
            "recover-txid-floor", "serve-group-size-target",
            "serve-group-window"])
    def test_single_value_options_are_gone(self, build):
        """Shards are placed by hash slot only, an enabled facade always
        records metrics into a default-sized trace ring, recovery takes
        the durable state it restarts from (no sharding hooks), and group
        commit forms groups by slot contention alone (no window)."""
        with pytest.raises(TypeError):
            build()

    def test_cost_model_is_per_instance(self):
        a, b = EngineConfig(), EngineConfig()
        assert a.cost is not b.cost

    def test_cost_model_frozen(self):
        cost = CostModel()
        with pytest.raises(Exception):
            cost.compare = 1.0  # type: ignore[misc]
