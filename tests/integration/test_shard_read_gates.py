"""Exact-count gates on the sharded read path (DESIGN.md §16.1, §16.6).

Deterministic invariants of "a statement is sent to a shard only if
that shard can own a matching row, and a hit crosses the router once":

* **fan-out** — every TPC-C index starts with the warehouse shard key, so
  every TPC-C statement has exactly one possible owner: the router's
  fan-out counter equals its query counter, and four shards together do
  no more index searches than one shard does for the same transactions;
* **over-pull** — a sliced scatter-gather scan pulls each index hit once,
  plus at most the one look-ahead hit that ends a cursor run;
* **LIMIT** — a served LIMIT scan sizes its slices by the LIMIT: ten rows
  cost at most two table pages per shard, not a full slice's;
* **residue** — every read path drops rebalance residue through the
  router's one ownership filter, so every one of them counts it; index
  reads hash a shard key only while an index tree can hold residue (an
  interrupted rebalance, a recovered router), a sequential scan always;
* **balance** — the bulk load deals TPC-C's warehouses to distinct
  shards, so rows and simulated time spread evenly over the shards;
* **gather** — the unordered gather behind a served ``analytic_rows``
  returns exactly the multiset a single node's ``range_select`` does:
  across a rebalance that lands between two of its slots (it starts
  over), over residue, and on a version-oblivious index.

Counts, not timings: they repeat exactly, so they gate hard.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import DeviceCrashError
from repro.obs.config import ObsConfig
from repro.serve import ServeConfig
from repro.shard import HashPartitioner, ShardConfig, ShardedDatabase
from repro.sim.device import FaultPlan
from repro.workloads import CHBenchmark, TPCCConfig, TPCCRunner
from repro.workloads.backend import (ShardServerBackend, _ShardSessionTxn,
                                     shard_served_backend)

from ..property.test_prop_shard_routing import (
    rebalance_interrupted_after_flip, shuffle_leaving_residue)

pytestmark = [pytest.mark.shard, pytest.mark.workload]

OBS = EngineConfig(obs=ObsConfig(enabled=True))
SCALE = TPCCConfig(warehouses=4, districts_per_warehouse=3,
                   customers_per_district=8, items=40,
                   initial_orders_per_district=6, seed=13)


def served(shards: int) -> ShardServerBackend:
    return shard_served_backend(
        ShardedDatabase(OBS, ShardConfig(shards=shards)))


def index_searches(router: ShardedDatabase) -> int:
    return sum(info.mvpbt.stats.searches
               for db in router.shards for info in db.catalog.indexes)


def test_every_tpcc_statement_asks_one_shard() -> None:
    searches = {}
    for shards in (1, 4):
        backend = served(shards)
        runner = TPCCRunner(backend, SCALE)
        runner.load()
        reg = backend.router.obs.registry
        before = {name: reg.counter_value(f"shard.queries.{name}")
                  for name in ("point", "scan", "fanout")}
        searched = index_searches(backend.router)
        result = runner.run(200)
        assert result.committed > 150
        point, scan, fanout = (
            reg.counter_value(f"shard.queries.{name}") - before[name]
            for name in ("point", "scan", "fanout"))
        assert point > 0 and scan > 0
        assert fanout == point + scan, (
            f"{shards} shards: {fanout} shard queries for "
            f"{point + scan} statements")
        searches[shards] = index_searches(backend.router) - searched
        backend.close()
    assert 0 < searches[4] <= searches[1]


def test_ch_round_pulls_each_hit_once(monkeypatch) -> None:
    backend = served(4)
    ch = CHBenchmark(backend, SCALE)
    ch.load()
    emitted = 0
    analytic_rows = _ShardSessionTxn.analytic_rows

    def counting(self, index, lo, hi):
        nonlocal emitted
        rows = analytic_rows(self, index, lo, hi)
        emitted += len(rows)
        return rows

    monkeypatch.setattr(_ShardSessionTxn, "analytic_rows", counting)
    reg = backend.router.obs.registry
    result = ch.run_mixed(rounds=1, oltp_slice=60)
    assert result.olap_queries == len(ch.QUERIES)
    pulled = reg.counter_value("shard.scan.hits_pulled")
    runs = reg.counter_value("shard.scan.runs_pulled")
    assert emitted > 1000 and runs > 0
    assert emitted <= pulled <= emitted + runs, (
        f"{pulled} hits pulled in {runs} runs for {emitted} rows")
    backend.close()


@pytest.mark.parametrize("lo", [10, 500, 1240])
def test_served_limit_scan_fetches_about_limit_rows(lo: int) -> None:
    """~18 rows per table page: a full 256-row slice (64 rows a shard)
    would ask for 16 or more pages."""
    router = ShardedDatabase(EngineConfig(), ShardConfig(shards=4))
    router.create_table("t", [("k", "int"), ("v", "str")])
    router.create_index("ix", "t", ["k"], kind="mvpbt")
    txn = router.begin()
    for k in range(2000):
        router.insert(txn, "t", (k, "x" * 400))
    router.commit(txn)
    router.flush_all()      # no unflushed tail page answers for free

    def table_requests() -> int:
        return sum(db.pool.stats_for(db.catalog.table("t").file).requests
                   for db in router.shards)

    with shard_served_backend(router) as backend:
        served_txn = backend.begin()
        before = table_requests()
        rows = served_txn.scan_limit("ix", (lo,), 10)
        asked = table_requests() - before
        served_txn.commit()
    assert [row[0] for row in rows] == list(range(lo, lo + 10))
    assert asked <= 2 * len(router.shards), (
        f"{asked} table-page requests for a 10-row LIMIT scan")


def test_every_read_path_counts_the_residue_it_filters() -> None:
    """A shuffle that stops past the layout flip leaves the moved index
    records on their source shards; whichever path reads them, the one
    ownership filter drops them and ``shard.hits.residue_filtered`` says
    how many."""
    router = ShardedDatabase(OBS, ShardConfig(shards=4))
    router.create_table("t", [("k", "int"), ("v", "str")])
    router.create_index("ix", "t", ["k"], kind="mvpbt")
    rows = [(k, f"v{k}") for k in range(300)]
    router.bulk_load("t", rows)
    shuffle_leaving_residue(router, seed=1)
    reg = router.obs.registry

    def filtered(read: object) -> int:
        before = reg.counter_value("shard.hits.residue_filtered")
        assert read() == rows       # type: ignore[operator]
        return reg.counter_value("shard.hits.residue_filtered") - before

    txn = router.begin()
    by_range = filtered(lambda: router.range_select(txn, "ix", None, None))
    assert by_range > 0
    assert filtered(lambda: sorted(router.seq_scan(txn, "t"))) > 0
    with router.serve() as server, server.session() as session:
        session.begin()
        assert filtered(lambda: list(session.batch_scan("ix"))) == by_range
        assert filtered(lambda: session.scan_limit("ix", None,
                                                   len(rows))) > 0
        session.commit()
    router.commit(txn)


def loaded_pair(config: EngineConfig) -> tuple[ShardedDatabase,
                                               list[tuple[int, str]]]:
    """4 shards of 300 rows, indexed on the shard key and on ``v``."""
    router = ShardedDatabase(config, ShardConfig(shards=4))
    router.create_table("t", [("k", "int"), ("v", "str")])
    router.create_index("ix", "t", ["k"], kind="mvpbt")
    router.create_index("ix_v", "t", ["v"], kind="mvpbt")
    rows = [(k, f"v{k:03}") for k in range(300)]
    router.bulk_load("t", rows)
    return router, rows


def shuffled(layout: HashPartitioner) -> HashPartitioner:
    for slot in range(layout.slots):
        layout = layout.move_slot(slot, (slot * 7 + 1) % layout.shards)
    return layout


def test_completed_rebalance_leaves_index_reads_unhashed(
        monkeypatch) -> None:
    """A completed rebalance takes every moved record out of its source
    tree, so index reads hash no shard key; the source table stores keep
    the moved chains, which a sequential scan still drops."""
    router, rows = loaded_pair(OBS)
    assert router.rebalance(shuffled(router.partitioner))[
        "chains_moved"] > 0
    assert not router.index_residue
    hashed = 0
    shard_of = HashPartitioner.shard_of

    def counting(self, key):
        nonlocal hashed
        hashed += 1
        return shard_of(self, key)

    monkeypatch.setattr(HashPartitioner, "shard_of", counting)
    txn = router.begin()
    assert router.range_select(txn, "ix", None, None) == rows
    assert [hit.row for _k, hit in router.range_hits_tagged(
        txn, "ix", None, None)] == rows
    for row in rows[::10]:      # ix_v does not cover the shard key
        assert router.select(txn, "ix_v", (row[1],)) == [row]
        assert [hit.row for _k, hit in router.select_hits_tagged(
            txn, "ix_v", (row[1],))] == [row]
    with router.serve() as server, server.session() as session:
        session.begin()
        assert list(session.batch_scan("ix", slice_rows=64)) == rows
        assert session.scan_limit("ix", None, len(rows)) == rows
        assert session.count_range("ix", None, None) == len(rows)
        session.commit()
    assert hashed == 0
    reg = router.obs.registry
    residue = reg.counter_value("shard.hits.residue_filtered")
    assert sorted(router.seq_scan(txn, "t")) == rows
    assert hashed > 0
    assert reg.counter_value("shard.hits.residue_filtered") > residue
    router.commit(txn)


def test_recovered_router_filters_every_path() -> None:
    """A crash at a rebalance's layout NOTE leaves the copied-in records
    in their destination trees and no trace of the flip: recovery cannot
    rule residue out, so the recovered router filters every read path,
    and each of them drops the copies."""
    router, rows = loaded_pair(EngineConfig(
        durability=True, obs=ObsConfig(enabled=True)))
    layout = router.partitioner
    device = router.coordinator_device
    assert device is not None
    device.set_fault_plan(FaultPlan(fail_at=device.io_count))
    with pytest.raises(DeviceCrashError):
        router.rebalance(shuffled(layout))
    router = ShardedDatabase.recover(router)
    assert router.partitioner.to_state() == layout.to_state()
    reg = router.obs.registry

    def filtered(read: object, want: object) -> int:
        before = reg.counter_value("shard.hits.residue_filtered")
        assert read() == want       # type: ignore[operator]
        return reg.counter_value("shard.hits.residue_filtered") - before

    txn = router.begin()
    assert filtered(lambda: router.range_select(txn, "ix", None, None),
                    rows) > 0
    assert filtered(lambda: [hit.row for _k, hit in
                             router.range_hits_tagged(txn, "ix", None,
                                                      None)], rows) > 0
    assert filtered(lambda: sorted(router.seq_scan(txn, "t")), rows) > 0
    assert sum(filtered(lambda: router.select(txn, "ix_v", (row[1],)),
                        [row]) for row in rows) > 0
    assert sum(filtered(lambda: [hit.row for _k, hit in
                                 router.select_hits_tagged(
                                     txn, "ix_v", (row[1],))], [row])
               for row in rows) > 0
    with router.serve() as server, server.session() as session:
        session.begin()
        assert filtered(lambda: list(session.batch_scan(
            "ix", slice_rows=64)), rows) > 0
        assert filtered(lambda: session.scan_limit("ix", None, len(rows)),
                        rows) > 0
        assert filtered(lambda: session.count_range("ix", None, None),
                        len(rows)) > 0
        session.commit()
    router.commit(txn)


@pytest.mark.parametrize("seed", [11, 23])
def test_tpcc_load_balances_shards(seed: int) -> None:
    """The router's time is the slowest shard's, so placement gates it:
    the load deals the four warehouses' slots to four shards, and the
    rows and the run's simulated time spread evenly.  Round-robin slot
    owners put warehouses 1 and 3 on one shard and none on another
    (about 2.0 on both ratios).  1 000 transactions, because the mix
    picks each one's warehouse at random: over 300 the time ratio reads
    up to 1.2 from that draw alone (1.05 at most over 1 000)."""
    config = TPCCConfig(warehouses=4, districts_per_warehouse=10,
                        customers_per_district=30, items=200,
                        initial_orders_per_district=30,
                        remote_order_line_prob=0.1, seed=seed)
    backend = shard_served_backend(ShardedDatabase(
        EngineConfig(durability=True), ShardConfig(shards=4)))
    router = backend.router
    runner = TPCCRunner(backend, config)
    runner.load()
    rows = [0] * 4
    for table, positions in router._tables.items():
        for row in backend.dump_table(table):
            rows[router.partitioner.shard_of(
                tuple(row[p] for p in positions))] += 1
    assert max(rows) / (sum(rows) / 4) <= 1.10, rows
    start = [db.clock.now for db in router.shards]
    runner.run(1000)
    spent = [db.clock.now - t0 for db, t0 in zip(router.shards, start)]
    assert max(spent) / (sum(spent) / 4) <= 1.15, spent
    backend.close()


def gather_engines(oblivious: bool = False
                   ) -> tuple[Database, ShardedDatabase]:
    """(a single node, a 4-shard router) with one history: 300 rows, a
    third of them updated and a tenth deleted afterwards."""
    engines = (Database(EngineConfig()),
               ShardedDatabase(EngineConfig(), ShardConfig(shards=4)))
    for engine in engines:
        engine.create_table("t", [("k", "int"), ("v", "str")])
        if oblivious:   # sharded indexes are MV-PBT: ablate visibility
            engine.create_index("ix", "t", ["k"], kind="mvpbt",
                                index_only_visibility=False,
                                enable_gc=False)
        else:
            engine.create_index("ix", "t", ["k"], kind="mvpbt")
        txn = engine.begin()
        for k in range(300):
            engine.insert(txn, "t", (k, f"v{k}"))
        txn.commit()
        txn = engine.begin()
        for k in range(0, 300, 3):
            engine.update_by_key(txn, "ix", (k,), {"v": f"u{k}"})
        for k in range(1, 300, 10):
            engine.delete_by_key(txn, "ix", (k,))
        txn.commit()
    return engines


def gathered(router: ShardedDatabase, lo: tuple[int, ...] | None,
             hi: tuple[int, ...] | None, between: int = 0,
             land: object = None) -> tuple[list[object], int]:
    """(a served ``analytic_rows``, a served ``count_range``) of
    ``[lo, hi]`` in 16-row slices; ``land()`` runs once, before the
    ``between``-th scheduler slot of the read — as another session's
    turn would."""
    with shard_served_backend(
            router, ServeConfig(scan_slice_rows=16)) as backend:
        scheduler = backend.server.scheduler
        slot, slots = scheduler.slot, 0

        def turn(kind: str):
            nonlocal slots
            slots += 1
            if slots == between and land is not None:
                land()      # type: ignore[operator]
            return slot(kind)

        txn = backend.begin()
        scheduler.slot = turn       # type: ignore[method-assign]
        rows = txn.analytic_rows("ix", lo, hi)
        session = txn._session      # type: ignore[attr-defined]
        count = session.count_range("ix", lo, hi)
        scheduler.slot = slot       # type: ignore[method-assign]
        txn.commit()
    return rows, count


def single_node(db: Database, lo: tuple[int, ...] | None,
                hi: tuple[int, ...] | None) -> list[object]:
    txn = db.begin()
    rows = db.range_select(txn, "ix", lo, hi)
    txn.commit()
    assert len(rows) > 100
    return rows


# slot 1 pulls four legs and slots 2-5 fetch them: land after the first
# pull (2), between two fetches (3), between two rounds (6, 11), late (20)
@pytest.mark.parametrize("between", [2, 3, 6, 11, 20])
def test_gather_starts_over_after_a_rebalance(between: int) -> None:
    """A completed rebalance between two of the gather's slots moves
    rows the gather has already pulled or fetched: only a start-over
    keeps every row once."""
    db, router = gather_engines()
    want = single_node(db, (5,), None)
    moved: list[int] = []

    def rebalance() -> None:
        moved.append(router.rebalance(shuffled(router.partitioner))[
            "chains_moved"])

    rows, count = gathered(router, (5,), None, between, rebalance)
    assert moved and moved[0] > 0
    assert not router.index_residue
    assert sorted(rows) == want     # type: ignore[type-var]
    assert count == len(want)


def test_gather_filters_residue() -> None:
    db, router = gather_engines()
    want = single_node(db, None, (250,))
    rebalance_interrupted_after_flip(router, shuffled(router.partitioner))
    assert router.index_residue
    rows, count = gathered(router, None, (250,))
    assert sorted(rows) == want     # type: ignore[type-var]
    assert count == len(want)


def test_gather_reads_a_version_oblivious_index_in_one_slot() -> None:
    db, router = gather_engines(oblivious=True)
    want = single_node(db, (20,), (280,))
    assert not router.plan_scan("ix", (20,), (280,)).index_only
    rows, count = gathered(router, (20,), (280,))
    assert sorted(rows) == want     # type: ignore[type-var]
    assert count == len(want)
