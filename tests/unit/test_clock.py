"""Unit tests for the simulated clock."""

from dataclasses import replace

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.config import CostModel
from repro.core.tree import MVPBT
from repro.engine.database import Database
from repro.errors import ConfigError
from repro.index.lsm.tree import LSMTree
from repro.index.pbt import PartitionedBTree
from repro.kv.store import make_kv_store
from repro.shard import ShardConfig, ShardedDatabase
from repro.sim.clock import SimClock
from repro.storage.recordid import RecordID
from tests.reference_scan import reference_scan


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == 3.0

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ConfigError):
            clock.advance(-0.1)

    def test_repr_shows_time(self):
        assert "SimClock" in repr(SimClock())



class TestOnePriceList:
    """Every CPU charge reads the charging clock's ``cost``: one price list
    per engine; a component built bare charges a clock of its own."""

    def test_database_clock_carries_config_cost(self):
        sharded = ShardedDatabase(shard_config=ShardConfig(shards=3))
        for db in [Database()] + sharded.shards:
            assert db.clock.cost is db.config.cost

    def test_kv_clock_prices_no_txn_overhead(self):
        env = make_kv_store("mvpbt").env
        assert env.clock.cost == replace(env.config.cost, txn_overhead=0.0)

    def test_bare_pbt_charges_clock_compare(self, pagefile, pool):
        cpu = SimClock(cost=CostModel(compare=1e-3))
        tree = PartitionedBTree("pbt", pagefile, pool,
                                PartitionBuffer(1 << 20), clock=cpu)
        tree.insert_entry((1,), RecordID(0, 1))
        assert cpu.now == pytest.approx(20e-3)

    def test_bare_lsm_charges_clock_compare_and_hash(self, pagefile, pool):
        cpu = SimClock(cost=CostModel(compare=1e-3, hash_op=1.0))
        tree = LSMTree("lsm", pagefile, pool, clock=cpu)
        tree.put(("a",), "v")
        tree.flush_memtable()
        before = cpu.now
        assert tree.get(("a",)) == "v"
        nhashes = tree._l0[0].bloom.nhashes
        assert cpu.now - before == pytest.approx(22e-3 + nhashes)

    def test_reference_scan_charges_no_engine_clock(self, clock, pagefile,
                                                    pool, manager):
        tree = MVPBT("ix", pagefile, pool, PartitionBuffer(1 << 20), manager)
        txn = manager.begin()
        for k in range(10):
            tree.insert(txn, (k,), RecordID(0, k), vid=k + 1)
        txn.commit()
        reader = manager.begin()
        before = clock.now
        assert len(reference_scan(tree, reader)) == 10
        assert clock.now == before
