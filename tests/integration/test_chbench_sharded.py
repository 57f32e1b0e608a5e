"""CH-benchmark analytical queries over a served sharded cluster
(DESIGN.md §18.5): every OLAP query answers EXACTLY like single-node.

The mixed-run agreement lives in the differential oracle; this suite
pins the per-query results — not just cardinalities but the full
aggregates (group sums, revenue totals, top-k lists) — after the same
seeded OLTP history, served by a 4-shard
:class:`~repro.serve.shard_server.ShardServer`.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.shard import ShardConfig, ShardedDatabase
from repro.workloads import (CHBenchmark, DatabaseBackend, TPCCConfig,
                             shard_served_backend)

pytestmark = [pytest.mark.workload]

SCALE = TPCCConfig(warehouses=2, districts_per_warehouse=2,
                   customers_per_district=5, items=25,
                   initial_orders_per_district=4, seed=47)
OLTP_TXNS = 80


@pytest.fixture(scope="module")
def ch_pair():
    """(single-node, shard-served) CH benchmarks after one seeded OLTP
    history each — identical by the determinism property."""
    pair = {}
    for kind in ("database", "shard-server"):
        if kind == "database":
            backend = DatabaseBackend(Database(EngineConfig()))
        else:
            router = ShardedDatabase(EngineConfig(),
                                     ShardConfig(shards=4))
            backend = shard_served_backend(router)
        ch = CHBenchmark(backend, SCALE)
        ch.load()
        ch.tpcc.run(OLTP_TXNS)
        pair[kind] = (backend, ch)
    yield pair
    for backend, _ch in pair.values():
        backend.close()


def _query_both(ch_pair, fn):
    out = {}
    for kind, (backend, ch) in ch_pair.items():
        txn = backend.begin()
        try:
            out[kind] = fn(ch, txn)
        finally:
            txn.commit()
    return out["database"], out["shard-server"]


def test_q1_group_sums_agree(ch_pair) -> None:
    base, sharded = _query_both(ch_pair, lambda ch, t: ch.query_q1(t))
    assert len(base) > 5
    assert sharded == base


def test_q6_revenue_agrees(ch_pair) -> None:
    base, sharded = _query_both(ch_pair, lambda ch, t: ch.query_q6(t))
    assert base > 0
    assert sharded == pytest.approx(base)


def test_carrier_counts_agree(ch_pair) -> None:
    base, sharded = _query_both(
        ch_pair, lambda ch, t: ch.query_orders_by_carrier(t))
    assert sum(base.values()) > 0
    assert sharded == base


def test_low_stock_agrees(ch_pair) -> None:
    base, sharded = _query_both(
        ch_pair, lambda ch, t: ch.query_low_stock(t))
    assert sharded == base


def test_q4_delivered_orders_agree(ch_pair) -> None:
    base, sharded = _query_both(ch_pair, lambda ch, t: ch.query_q4(t))
    assert sharded == base


def test_top_customers_agree(ch_pair) -> None:
    base, sharded = _query_both(
        ch_pair, lambda ch, t: ch.query_top_customers(t))
    assert len(base) == 10
    assert sharded == base


def test_revenue_by_district_agrees(ch_pair) -> None:
    base, sharded = _query_both(
        ch_pair, lambda ch, t: ch.query_revenue_by_district(t))
    assert len(base) == SCALE.warehouses * SCALE.districts_per_warehouse
    assert sharded == base


def test_every_named_query_cardinality_agrees(ch_pair) -> None:
    """The run_query dispatch path (used by the mixed driver) agrees on
    every named query's cardinality in one snapshot."""
    def all_counts(ch, txn):
        return {name: ch.run_query(txn, name) for name in ch.QUERIES}
    base, sharded = _query_both(ch_pair, all_counts)
    assert sharded == base


def test_paused_query_rows_agree(ch_pair) -> None:
    """The Figure-12b stale-snapshot device returns the same cardinality
    on both backends (sim durations differ: protocols cost differently)."""
    rows = {}
    for kind, (_backend, ch) in ch_pair.items():
        _elapsed, cardinality = ch.run_paused_query(pause_slices=2,
                                                    oltp_per_slice=10)
        rows[kind] = cardinality
    assert rows["shard-server"] == rows["database"]
