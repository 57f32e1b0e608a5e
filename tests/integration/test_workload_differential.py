"""The workload differential oracle (DESIGN.md §18.5).

Every workload, at a fixed seed, must produce the IDENTICAL committed
final state no matter which backend executes it: a single-node database
driven bare, a served 1-shard router (the degenerate cluster) and a
served 4-shard 2PC cluster.  Backends differ only
in simulated cost and protocol — never in results.

The oracle compares full-table dumps under fresh snapshots (sorted row
multisets) and, for TPC-C, additionally asserts the spec's consistency
invariants (warehouse/district YTD, order counters, new-order pairing,
order-line cardinalities) on every backend's final state.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.obs.config import ObsConfig
from repro.shard import ShardConfig, ShardedDatabase
from repro.workloads import (WORKLOADS, CHBenchmark, DatabaseBackend,
                             TPCCConfig, TPCCRunner, WorkloadBackend,
                             YCSBRunner, assert_tpcc_consistent,
                             shard_served_backend)

pytestmark = [pytest.mark.workload]

#: the oracle panel: every backend the runners must agree across
PANEL = ("database", "shard-server-1", "shard-server-4")


def make_panel_backend(kind: str) -> WorkloadBackend:
    config = EngineConfig(obs=ObsConfig(enabled=True))
    if kind == "database":
        return DatabaseBackend(Database(config))
    shards = int(kind.rsplit("-", 1)[1])
    return shard_served_backend(
        ShardedDatabase(config, ShardConfig(shards=shards)))


# ------------------------------------------------------------------- YCSB

YCSB_SCALE = dict(record_count=150, operation_count=200)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_ycsb_identical_final_state_across_backends(workload: str) -> None:
    """YCSB A-F: one op stream, three backends, one committed state."""
    config = WORKLOADS[workload].scaled(seed=101, **YCSB_SCALE)
    dumps: dict[str, list] = {}
    results = {}
    for kind in PANEL:
        with make_panel_backend(kind) as backend:
            runner = YCSBRunner(backend, config, workload)
            runner.load()
            result = runner.run()
            assert result.operations == config.operation_count, (
                f"{kind} did not run to completion")
            results[kind] = (result.counts, result.not_found)
            dumps[kind] = backend.dump_table("usertable")
    baseline = dumps["database"]
    assert len(baseline) >= config.record_count
    for kind in PANEL:
        assert results[kind] == results["database"], (
            f"workload {workload}: {kind} op counts diverged")
        assert dumps[kind] == baseline, (
            f"workload {workload}: {kind} final state differs from "
            f"single-node ({len(dumps[kind])} vs {len(baseline)} rows)")


def test_ycsb_scan_heavy_state_not_trivial() -> None:
    """Workload E actually exercises scatter-gather scans + inserts."""
    config = WORKLOADS["E"].scaled(seed=101, **YCSB_SCALE)
    with make_panel_backend("shard-server-4") as backend:
        runner = YCSBRunner(backend, config, "E")
        runner.load()
        result = runner.run()
        assert result.counts["scan"] > 100
        assert result.counts["insert"] > 0
        assert backend.dump_table("usertable")


# ------------------------------------------------------------------ TPC-C

TPCC_SCALE = TPCCConfig(warehouses=2, districts_per_warehouse=2,
                        customers_per_district=5, items=30,
                        initial_orders_per_district=5, seed=23)
TPCC_TXNS = 150

TPCC_TABLES = ("warehouse", "district", "customer", "item", "stock",
               "orders", "new_order", "order_line", "history")


@pytest.fixture(scope="module")
def tpcc_panel() -> dict[str, dict]:
    """Run the same TPC-C mix on every backend once (shared fixture)."""
    out: dict[str, dict] = {}
    for kind in PANEL:
        backend = make_panel_backend(kind)
        runner = TPCCRunner(backend, TPCC_SCALE, record_ops=True)
        runner.load()
        result = runner.run(TPCC_TXNS)
        out[kind] = {
            "backend": backend,
            "result": result,
            "op_log": list(runner.op_log),
            "dumps": {t: backend.dump_table(t) for t in TPCC_TABLES},
        }
    yield out
    for entry in out.values():
        entry["backend"].close()


def test_tpcc_runs_to_completion_everywhere(tpcc_panel) -> None:
    for kind in PANEL:
        result = tpcc_panel[kind]["result"]
        assert result.committed + result.aborted == TPCC_TXNS, (
            f"{kind} lost transactions")
        assert result.committed > 100
        assert result.by_type.get("new_order", 0) > 20


def test_tpcc_identical_final_state_across_backends(tpcc_panel) -> None:
    """The tentpole assertion: all nine tables byte-identical."""
    baseline = tpcc_panel["database"]["dumps"]
    for kind in PANEL:
        for table in TPCC_TABLES:
            got = tpcc_panel[kind]["dumps"][table]
            assert got == baseline[table], (
                f"{kind}: table {table} differs from single-node "
                f"({len(got)} vs {len(baseline[table])} rows)")


def test_tpcc_identical_op_streams(tpcc_panel) -> None:
    """Data-dependent op logs agree: the backends saw the same data at
    every decision point, not just at the end."""
    baseline = tpcc_panel["database"]["op_log"]
    assert len(baseline) == TPCC_TXNS
    for kind in PANEL:
        assert tpcc_panel[kind]["op_log"] == baseline, (
            f"{kind}: op stream diverged")


def test_tpcc_results_agree(tpcc_panel) -> None:
    baseline = tpcc_panel["database"]["result"]
    for kind in PANEL:
        result = tpcc_panel[kind]["result"]
        assert result.committed == baseline.committed
        assert result.aborted == baseline.aborted
        assert result.by_type == baseline.by_type


def test_tpcc_consistency_invariants_every_backend(tpcc_panel) -> None:
    for kind in PANEL:
        assert_tpcc_consistent(tpcc_panel[kind]["backend"],
                               context=kind)


def test_tpcc_cross_shard_commits_happened(tpcc_panel) -> None:
    """The 4-shard agreement is only meaningful if transactions really
    spanned shards.  (Non-durable clusters skip the 2PC marker I/O by
    design — the durable crash suite exercises the full marker flow.)"""
    router = tpcc_panel["shard-server-4"]["backend"].router
    cross = router.obs.registry.counter_value(
        "shard.txn.commits.cross_shard")
    single = router.obs.registry.counter_value(
        "shard.txn.commits.single_shard")
    assert cross > 0, "no multi-shard commit happened"
    assert single > 0, "no single-shard fast path used"


# --------------------------------------------------------------- CH (HTAP)

def test_chbench_mixed_identical_state() -> None:
    """The mixed HTAP driver agrees between single-node and a served
    4-shard cluster — including the snapshot-held analytical reads."""
    panel = {}
    for kind in ("database", "shard-server-4"):
        backend = make_panel_backend(kind)
        ch = CHBenchmark(backend, TPCC_SCALE)
        ch.load()
        result = ch.run_mixed(rounds=2, oltp_slice=30)
        panel[kind] = (backend, ch, result)
    base_backend, _base_ch, base_result = panel["database"]
    shard_backend, _shard_ch, shard_result = panel["shard-server-4"]
    assert shard_result.oltp_committed == base_result.oltp_committed
    assert shard_result.query_rows == base_result.query_rows
    for table in TPCC_TABLES:
        assert (shard_backend.dump_table(table)
                == base_backend.dump_table(table)), f"{table} differs"
    for backend, _ch, _result in panel.values():
        assert_tpcc_consistent(backend, context="chbench")
        backend.close()
