"""Seeded determinism of the workload runners (DESIGN.md §18.5).

The differential oracle only works if a (config, seed) pair names ONE
workload: the same operation stream, byte for byte, on every run and on
every backend.  These properties pin that contract:

* running the same seeded workload twice produces identical op logs,
  identical result counters and identical committed final states;
* running it on a different backend (single-node vs. a served 2-shard
  cluster)
  produces the identical op log — the runner's RNG stream must not
  depend on which backend executes it;
* changing the seed changes the op stream (the log is not a constant).
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.shard import ShardConfig, ShardedDatabase
from repro.workloads import (WORKLOADS, DatabaseBackend, TPCCConfig,
                             TPCCRunner, YCSBRunner, shard_served_backend)

pytestmark = [pytest.mark.workload]

YCSB_TABLES = ("usertable",)
TPCC_TABLES = ("warehouse", "district", "customer", "item", "stock",
               "orders", "new_order", "order_line", "history")


def make_backend(kind: str):
    if kind == "database":
        return DatabaseBackend(Database(EngineConfig()))
    return shard_served_backend(
        ShardedDatabase(EngineConfig(), ShardConfig(shards=2)))


def run_ycsb(kind: str, seed: int, workload: str = "A"):
    config = WORKLOADS[workload].scaled(seed=seed, record_count=60,
                                        operation_count=80)
    with make_backend(kind) as backend:
        runner = YCSBRunner(backend, config, workload, record_ops=True)
        runner.load()
        result = runner.run()
        return (list(runner.op_log), (result.counts, result.not_found),
                backend.dump_table("usertable"))


def run_tpcc(kind: str, seed: int, txns: int = 60):
    config = TPCCConfig(warehouses=2, districts_per_warehouse=2,
                        customers_per_district=4, items=20,
                        initial_orders_per_district=3, seed=seed)
    backend = make_backend(kind)
    try:
        runner = TPCCRunner(backend, config, record_ops=True)
        runner.load()
        result = runner.run(txns)
        dumps = {t: backend.dump_table(t) for t in TPCC_TABLES}
        return (list(runner.op_log),
                (result.committed, result.aborted, result.by_type),
                dumps)
    finally:
        backend.close()


# -------------------------------------------------------------------- YCSB

@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("workload", ["A", "E"])
def test_ycsb_repeat_runs_identical(seed: int, workload: str) -> None:
    first = run_ycsb("database", seed, workload)
    second = run_ycsb("database", seed, workload)
    assert first[0] == second[0], "op stream differs between runs"
    assert first[1] == second[1]
    assert first[2] == second[2]


@pytest.mark.parametrize("seed", [3, 17])
def test_ycsb_op_stream_backend_independent(seed: int) -> None:
    single = run_ycsb("database", seed)
    sharded = run_ycsb("shard-server", seed)
    assert single[0] == sharded[0], (
        "the RNG stream leaked backend-dependent state")
    assert single[1] == sharded[1]
    assert single[2] == sharded[2]


def test_ycsb_seed_changes_stream() -> None:
    assert run_ycsb("database", 3)[0] != run_ycsb("database", 4)[0]


# ------------------------------------------------------------------- TPC-C

@pytest.mark.parametrize("seed", [5, 29])
def test_tpcc_repeat_runs_identical(seed: int) -> None:
    first = run_tpcc("database", seed)
    second = run_tpcc("database", seed)
    assert first[0] == second[0], "op stream differs between runs"
    assert first[1] == second[1]
    assert first[2] == second[2]


@pytest.mark.parametrize("seed", [5, 29])
def test_tpcc_op_stream_backend_independent(seed: int) -> None:
    single = run_tpcc("database", seed)
    sharded = run_tpcc("shard-server", seed)
    assert single[0] == sharded[0], (
        "the RNG stream leaked backend-dependent state")
    assert single[1] == sharded[1]
    assert single[2] == sharded[2]


def test_tpcc_seed_changes_stream() -> None:
    assert run_tpcc("database", 5, txns=30)[0] \
        != run_tpcc("database", 6, txns=30)[0]


def test_tpcc_op_log_length_matches_attempts() -> None:
    log, (committed, aborted, _by_type), _ = run_tpcc("database", 5)
    assert len(log) == committed + aborted == 60
