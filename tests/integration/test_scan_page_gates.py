"""Exact-count gates: a scan touches each page once (DESIGN.md §9.8).

Deterministic invariants of the chunked scan pipeline:

* **LIMIT scan** — a 50-row ``scan_limit`` over key-ordered rows asks the
  buffer pool for the one or two table pages the rows live on and the one
  or two index pages the result spans, however many partitions lie above;
* **served LIMIT scan** — the served adapter sizes its slices by the
  LIMIT, so ten rows cost the table pages of ten rows, not of a full
  ``scan_slice_rows`` slice;
* **abandoned cursor** — a consumer that stops early leaves every
  partition the merge never reached unrequested, and the records it did
  classify are still booked;
* **analytic round** — the CH queries' buffer requests are bounded by the
  pages their rows live on, not by the rows;
* **rows, not handles** — a LIMIT scan and a CH round's analytic reads
  construct no :class:`RowHit` (DESIGN.md §9.1);
* **COUNT** — a served ``count_range`` counts index-only hits and asks
  for no table page;
* **router work** — a sliced sharded scan charges every shard's clock the
  merge and ownership-hash work it did per row, and nothing more
  (DESIGN.md §9.10); an unordered gather merges nothing, so with no
  residue possible it charges nothing.

Counts, not timings: they repeat exactly, so they gate hard.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.engine.executor import Executor, RowHit
from repro.obs.config import ObsConfig
from repro.serve import ServeConfig
from repro.shard import ShardConfig, ShardedDatabase
from repro.sim.clock import SimClock
from repro.workloads import CHBenchmark, TPCCConfig
from repro.workloads.backend import (_ShardSessionTxn, as_backend,
                                     served_backend, shard_served_backend)

from ..property.test_prop_shard_routing import \
    rebalance_interrupted_after_flip

pytestmark = pytest.mark.workload

ROWS = 5000
PARTITIONS = 4


@pytest.fixture(scope="module")
def loaded() -> Database:
    """5 000 rows inserted in key order, one persisted index partition per
    1 250 of them, nothing left in ``P_N``."""
    db = Database(EngineConfig())
    db.create_table("t", [("k", "int"), ("v", "str")])
    db.create_index("ix", "t", ["k"])
    tree = db.catalog.index("ix").mvpbt
    per_part = ROWS // PARTITIONS
    for part in range(PARTITIONS):
        txn = db.begin()
        for k in range(part * per_part, (part + 1) * per_part):
            db.insert(txn, "t", (k, "x" * 40))
        txn.commit()
        tree.evict_partition()
    assert len(tree.persisted_partitions) == PARTITIONS
    return db


def requests(db: Database) -> tuple[int, int]:
    """(table-page, index-page) pool requests so far."""
    table = db.catalog.table("t").file
    index = db.catalog.index("ix").mvpbt.file
    return (db.pool.stats_for(table).requests,
            db.pool.stats_for(index).requests)


# inside a partition, and running across a partition boundary
@pytest.mark.parametrize("lo", [10, 1240, 2000, 3720])
def test_limit_scan_asks_for_its_own_pages_only(loaded: Database,
                                                lo: int) -> None:
    txn = as_backend(loaded).begin()
    table_before, index_before = requests(loaded)
    rows = txn.scan_limit("ix", (lo,), 50)
    table_after, index_after = requests(loaded)
    txn.commit()
    assert [row[0] for row in rows] == list(range(lo, lo + 50))
    assert table_after - table_before <= 2
    assert index_after - index_before <= 2


@pytest.mark.parametrize("lo", [10, 1240, 2000, 3720])
def test_served_limit_scan_fetches_about_limit_rows(loaded: Database,
                                                    lo: int) -> None:
    with served_backend(loaded) as backend:
        txn = backend.begin()
        table_before, _index = requests(loaded)
        rows = txn.scan_limit("ix", (lo,), 10)
        table_after, _index = requests(loaded)
        txn.commit()
    assert [row[0] for row in rows] == list(range(lo, lo + 10))
    # a full 256-row slice would span three or four table pages
    assert table_after - table_before <= 2


def test_abandoned_cursor_leaves_later_partitions_unrequested(
        loaded: Database) -> None:
    tree = loaded.catalog.index("ix").mvpbt
    txn = loaded.begin()
    _table, index_before = requests(loaded)
    decoded = tree.stats.pages_batch_decoded
    checked = tree.stats.records_checked
    cursor = tree.cursor(txn, (2000,), None)
    first = [next(cursor) for _ in range(5)]
    cursor.close()
    txn.commit()
    assert [hit.key for hit in first] == [(k,) for k in range(2000, 2005)]
    # partitions 2 and 3 lie wholly above: their heads came from fences
    assert requests(loaded)[1] - index_before == 1
    assert tree.stats.pages_batch_decoded - decoded == 1
    assert tree.stats.records_checked - checked >= 5


def test_ch_round_asks_for_pages_not_rows(monkeypatch) -> None:
    backend = shard_served_backend(ShardedDatabase(
        EngineConfig(obs=ObsConfig(enabled=True)), ShardConfig(shards=4)))
    ch = CHBenchmark(backend, TPCCConfig(
        warehouses=4, districts_per_warehouse=3, customers_per_district=8,
        items=40, initial_orders_per_district=6, seed=13))
    ch.load()
    pools = [db.pool for db in backend.router.shards]
    emitted = asked = 0
    analytic_rows = _ShardSessionTxn.analytic_rows

    def counting(self, index, lo, hi):
        nonlocal emitted, asked
        before = sum(pool.total_stats().requests for pool in pools)
        rows = analytic_rows(self, index, lo, hi)
        asked += sum(pool.total_stats().requests for pool in pools) - before
        emitted += len(rows)
        return rows

    monkeypatch.setattr(_ShardSessionTxn, "analytic_rows", counting)
    result = ch.run_mixed(rounds=1, oltp_slice=60)
    backend.close()
    assert result.olap_queries == len(ch.QUERIES)
    assert emitted > 1000
    assert asked <= emitted / 4, (
        f"{asked} buffer requests for {emitted} analytic rows")


@pytest.fixture
def row_hits_built(monkeypatch) -> Callable[[], int]:
    """How many :class:`RowHit` handles have been constructed since."""
    built = 0
    new = RowHit.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(RowHit, "__new__", staticmethod(counting))
    return lambda: built


def test_limit_scan_builds_no_row_handle(loaded: Database,
                                         row_hits_built) -> None:
    txn = as_backend(loaded).begin()
    rows = txn.scan_limit("ix", (2000,), 50)
    assert [row[0] for row in rows] == list(range(2000, 2050))
    assert row_hits_built() == 0
    assert len(txn.select_hits("ix", (2000,))) == row_hits_built() == 1
    txn.commit()


def test_ch_round_analytic_reads_build_no_row_handle(
        monkeypatch, row_hits_built) -> None:
    """The served sliced scan hands rows across; only the OLTP half's
    hit-addressed DML builds handles."""
    backend = shard_served_backend(ShardedDatabase(
        EngineConfig(), ShardConfig(shards=4)))
    ch = CHBenchmark(backend, TPCCConfig(
        warehouses=4, districts_per_warehouse=3, customers_per_district=8,
        items=40, initial_orders_per_district=6, seed=13))
    ch.load()
    emitted = analytic_handles = 0
    analytic_rows = _ShardSessionTxn.analytic_rows

    def counting(self, index, lo, hi):
        nonlocal emitted, analytic_handles
        before = row_hits_built()
        rows = analytic_rows(self, index, lo, hi)
        analytic_handles += row_hits_built() - before
        emitted += len(rows)
        return rows

    monkeypatch.setattr(_ShardSessionTxn, "analytic_rows", counting)
    result = ch.run_mixed(rounds=1, oltp_slice=60)
    backend.close()
    assert result.olap_queries == len(ch.QUERIES)
    assert emitted > 1000
    assert analytic_handles == 0
    assert row_hits_built() > 0      # the OLTP half's DML handles


def test_sliced_scan_charges_the_router_work_per_row(monkeypatch) -> None:
    """The router's per-row work goes on every shard's clock, and only
    the work it does: two merge comparisons when the plan merges more
    than one leg, one ownership hash while index residue can exist.  A
    pinned one-leg scan with no residue possible charges nothing."""
    config = EngineConfig()
    router = ShardedDatabase(config, ShardConfig(shards=2))
    router.create_table("t", [("w", "int"), ("k", "int"), ("v", "str")])
    router.create_index("ix", "t", ["w", "k"], kind="mvpbt")
    txn = router.begin()
    for w in (1, 2):
        for k in range(300):
            router.insert(txn, "t", (w, k, "x" * 20))
    txn.commit()
    layout = router.partitioner
    assert layout.slot_of((1,)) != layout.slot_of((2,))
    owner = layout.shard_of((1,))
    idle = router.shards[1 - owner]

    # each shard's clock over the router's fetches, minus what its own
    # engine spent fetching
    charged = [0.0, 0.0]
    router_fetch, engine_fetch = ShardedDatabase.fetch_rows, \
        Database.fetch_rows

    def fetch(self, *args, **kwargs):
        before = [db.clock.now for db in self.shards]
        rows = router_fetch(self, *args, **kwargs)
        for k, db in enumerate(self.shards):
            charged[k] += db.clock.now - before[k]
        return rows

    def fetch_on_shard(self, *args, **kwargs):
        before = self.clock.now
        rows = engine_fetch(self, *args, **kwargs)
        charged[router.shards.index(self)] -= self.clock.now - before
        return rows

    monkeypatch.setattr(ShardedDatabase, "fetch_rows", fetch)
    monkeypatch.setattr(Database, "fetch_rows", fetch_on_shard)

    def scan(lo: tuple[int, ...]) -> tuple[float, list[float]]:
        """(the idle shard's clock, the router's charges) over a scan of
        the 300 rows of w = 1 from ``lo``."""
        charged[:] = [0.0, 0.0]
        with router.serve() as server, server.session() as session:
            session.begin()
            before = idle.clock.now
            rows = list(session.batch_scan("ix", lo, (1, 10 ** 9),
                                           slice_rows=64))
            spent = idle.clock.now - before
            session.commit()
        assert [row[:2] for row in rows] == [(1, k) for k in range(300)]
        return spent, list(charged)

    cost = config.cost
    merge, hash_op = 300 * 2 * cost.compare, 300 * cost.hash_op
    assert scan((1,)) == (0.0, [0.0, 0.0])      # pinned: one leg
    _spent, charges = scan((0,))                # unpinned: two legs
    assert charges == pytest.approx([merge, merge], rel=1e-9)

    # a rebalance of w = 2's slot cut short after its flip: residue in
    # some index tree, so every charge adds the hash
    rebalance_interrupted_after_flip(router, layout.move_slot(
        layout.slot_of((2,)), 1 - layout.shard_of((2,))))
    assert router.index_residue
    assert router.partitioner.shard_of((1,)) == owner
    spent, charges = scan((1,))
    assert spent == pytest.approx(hash_op, rel=1e-9)
    assert charges == pytest.approx([hash_op, hash_op], rel=1e-9)
    _spent, charges = scan((0,))
    assert charges == pytest.approx([merge + hash_op] * 2, rel=1e-9)


def test_unordered_gather_charges_no_router_work(monkeypatch) -> None:
    """An unpinned 4-leg ``analytic_rows`` fetches each leg's rows on
    that leg's shard and merges nothing: with no residue possible, every
    shard's clock moves exactly as far as its own pulls and fetches move
    it — no per-row router charge on any shard."""
    router = ShardedDatabase(EngineConfig(), ShardConfig(shards=4))
    router.create_table("t", [("k", "int"), ("v", "str")])
    router.create_index("ix", "t", ["k"], kind="mvpbt")
    router.bulk_load("t", [(k, "x" * 20) for k in range(1000)])
    assert not router.index_residue
    clocks = [db.clock for db in router.shards]
    own = [0.0] * len(clocks)
    pull, fetch = Executor.pull_slice, Database.fetch_rows

    def timed(call, shard_of):
        def run(self, *args, **kwargs):
            k = clocks.index(shard_of(self))
            before = clocks[k].now
            out = call(self, *args, **kwargs)
            own[k] += clocks[k].now - before
            return out
        return run

    monkeypatch.setattr(Executor, "pull_slice",
                        timed(pull, lambda ex: ex.db.clock))
    monkeypatch.setattr(Database, "fetch_rows",
                        timed(fetch, lambda db: db.clock))
    with shard_served_backend(
            router, ServeConfig(scan_slice_rows=64)) as backend:
        txn = backend.begin()
        before = [clock.now for clock in clocks]
        rows = txn.analytic_rows("ix", (0,), None)
        spent = [clock.now - t0 for clock, t0 in zip(clocks, before)]
        txn.commit()
    assert sorted(rows) == [(k, "x" * 20) for k in range(1000)]
    assert all(cost > 0 for cost in own)
    merge = len(rows) * 2 * EngineConfig().cost.compare
    for k, (total, mine) in enumerate(zip(spent, own)):
        assert abs(total - mine) <= merge * 1e-6, (
            f"shard {k}: {total - mine} s charged beyond its own work")


def test_one_shard_router_scan_costs_what_one_node_does() -> None:
    """A 1-shard router's served scan is one leg with no residue
    possible: its shard's clock moves exactly as a single node's does
    over the same rows."""
    def load(engine: Database | ShardedDatabase) -> None:
        engine.create_table("t", [("k", "int"), ("v", "str")])
        engine.create_index("ix", "t", ["k"], kind="mvpbt")
        txn = engine.begin()
        for k in range(300):
            engine.insert(txn, "t", (k, "x" * 20))
        txn.commit()

    def scan(engine: Database | ShardedDatabase,
             clock: SimClock) -> tuple[list[object], float]:
        with engine.serve() as server, server.session() as session:
            session.begin()
            before = clock.now
            rows = list(session.batch_scan("ix", slice_rows=64))
            spent = clock.now - before
            session.commit()
        return rows, spent

    db = Database(EngineConfig())
    router = ShardedDatabase(EngineConfig(), ShardConfig(shards=1))
    load(db)
    load(router)
    rows, spent = scan(db, db.clock)
    assert len(rows) == 300 and spent > 0
    assert scan(router, router.shards[0].clock) == (rows, spent)


@pytest.mark.parametrize("shards", [None, 4])
def test_served_count_range_reads_no_table_page(shards: int | None) -> None:
    """With no index residue possible an index-only hit is one row, so a
    served COUNT(*) counts pulled hits and asks for no table page."""
    engine: Database | ShardedDatabase = (
        Database(EngineConfig()) if shards is None
        else ShardedDatabase(EngineConfig(), ShardConfig(shards=shards)))
    engine.create_table("t", [("k", "int"), ("v", "str")])
    engine.create_index("ix", "t", ["k"], kind="mvpbt")
    txn = engine.begin()
    for k in range(1000):
        engine.insert(txn, "t", (k, "x" * 40))
    txn.commit()
    nodes = engine.shards if isinstance(engine, ShardedDatabase) \
        else [engine]

    def table_requests() -> int:
        return sum(db.pool.stats_for(db.catalog.table("t").file).requests
                   for db in nodes)

    with engine.serve(ServeConfig(scan_slice_rows=64)) as server, \
            server.session() as session:
        session.begin()
        before = table_requests()
        assert session.count_range("ix", (100,), (899,)) == 800
        assert session.count_range("ix", None, None) == 1000
        assert table_requests() == before
        session.commit()
