"""Unit tests: the WorkloadBackend abstraction (DESIGN.md §18).

Covers the adapter surface (``as_backend`` over every stack layer), the
hit-handle DML roundtrip on all four backends, shard-aware bulk loading,
the bounded-fanout single-slot routing satellite, the router's scatter
reads (shard order, caller's thread, first error wins), and the
serve-layer hit APIs the backends ride on.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import ConfigError, WorkloadError
from repro.obs.config import ObsConfig
from repro.serve import ServeConfig, SessionExecutor
from repro.shard import ShardConfig, ShardedDatabase
from repro.workloads import (DatabaseBackend, ServerBackend,
                             ShardedBackend, ShardServerBackend,
                             WorkloadBackend, WorkloadHit, as_backend,
                             served_backend, shard_served_backend)

pytestmark = pytest.mark.workload

OBS = EngineConfig(obs=ObsConfig(enabled=True))

BACKENDS = ("database", "server", "sharded", "shard_server")


def make_backend(kind: str, shards: int = 4,
                 config: EngineConfig | None = None,
                 serve_config: ServeConfig | None = None
                 ) -> WorkloadBackend:
    config = config or EngineConfig()
    if kind == "database":
        return DatabaseBackend(Database(config))
    if kind == "server":
        return served_backend(Database(config), serve_config)
    router = ShardedDatabase(config, ShardConfig(shards=shards))
    if kind == "sharded":
        return ShardedBackend(router)
    return shard_served_backend(router, serve_config)


def create_t(backend: WorkloadBackend) -> None:
    backend.create_table("t", [("id", "int"), ("val", "str")],
                         shard_key=["id"])
    backend.create_index("ix", "t", ["id"], unique=True)


# ---------------------------------------------------------------- adapters

class TestAsBackend:
    def test_adapts_every_layer(self):
        db = Database(EngineConfig())
        assert isinstance(as_backend(db), DatabaseBackend)
        router = ShardedDatabase(EngineConfig(), ShardConfig(shards=2))
        assert isinstance(as_backend(router), ShardedBackend)
        with Database(EngineConfig()).serve() as server:
            assert isinstance(as_backend(server), ServerBackend)
        with ShardedDatabase(
                EngineConfig(), ShardConfig(shards=2)).serve() as sserver:
            assert isinstance(as_backend(sserver), ShardServerBackend)

    def test_identity_on_backends(self):
        backend = DatabaseBackend(Database(EngineConfig()))
        assert as_backend(backend) is backend

    def test_rejects_unknown(self):
        with pytest.raises(WorkloadError, match="cannot adapt"):
            as_backend(object())  # type: ignore[arg-type]

    def test_names_and_shard_counts(self):
        for kind, name, count in (("database", "database", 1),
                                  ("server", "server", 1),
                                  ("sharded", "sharded-4", 4),
                                  ("shard_server", "shard-server-4", 4)):
            with make_backend(kind) as backend:
                assert backend.name == name
                assert backend.shard_count == count


# ------------------------------------------------------------ DML roundtrip

@pytest.mark.parametrize("kind", BACKENDS)
class TestBackendRoundtrip:
    def test_insert_select_update_delete(self, kind):
        with make_backend(kind) as backend:
            create_t(backend)
            txn = backend.begin()
            for i in range(20):
                txn.insert("t", (i, f"v{i}"))
            txn.commit()

            txn = backend.begin()
            hits = txn.select_hits("ix", (7,))
            assert len(hits) == 1
            assert isinstance(hits[0], WorkloadHit)
            assert hits[0].row == (7, "v7")
            txn.update("t", hits[0], {"val": "V7"})
            gone = txn.select_hits("ix", (3,))
            txn.delete("t", gone[0])
            txn.commit()

            txn = backend.begin()
            assert txn.select("ix", (7,)) == [(7, "V7")]
            assert txn.select("ix", (3,)) == []
            rows = txn.range_select("ix", (5,), (9,))
            assert rows == [(5, "v5"), (6, "v6"), (7, "V7"),
                            (8, "v8"), (9, "v9")]
            tagged = txn.range_hits("ix", (5,), (9,))
            assert [h.row for h in tagged] == rows
            txn.commit()

            dump = backend.dump_table("t")
            assert len(dump) == 19
            assert (7, "V7") in dump and (3, "v3") not in dump

    def test_scan_limit_and_analytic_rows(self, kind):
        with make_backend(kind) as backend:
            create_t(backend)
            backend.bulk_insert("t", [(i, f"v{i}") for i in range(50)])
            txn = backend.begin()
            assert txn.scan_limit("ix", (10,), 5) == [
                (10, "v10"), (11, "v11"), (12, "v12"),
                (13, "v13"), (14, "v14")]
            assert txn.scan_limit("ix", None, 3) == [
                (0, "v0"), (1, "v1"), (2, "v2")]
            assert txn.scan_limit("ix", (48,), 10) == [
                (48, "v48"), (49, "v49")]
            rows = txn.analytic_rows("ix", (40,), None)
            if kind == "shard_server":  # a multiset: legs arrive unmerged
                rows = sorted(rows)
            assert rows == [(i, f"v{i}") for i in range(40, 50)]
            txn.commit()

    def test_a_limit_below_one_reads_nothing(self, kind):
        """Backends differ only in cost: a LIMIT 0 or a negative LIMIT is
        an empty result everywhere, never an untyped error — on a
        version-oblivious index as on an index-only one."""
        with make_backend(kind) as backend:
            create_t(backend)
            if backend.shard_count == 1:
                backend.create_index("oblivious_ix", "t", ["id"],
                                     kind="btree")
            else:   # sharded indexes are MV-PBT: ablate its visibility
                backend.create_index("oblivious_ix", "t", ["id"],
                                     index_only_visibility=False,
                                     enable_gc=False)
            backend.bulk_insert("t", [(i, f"v{i}") for i in range(10)])
            txn = backend.begin()
            for index in ("ix", "oblivious_ix"):
                for limit in (0, -1):
                    assert txn.scan_limit(index, None, limit) == []
                    assert txn.scan_limit(index, (3,), limit) == []
                assert txn.scan_limit(index, (3,), 1) == [(3, "v3")]
            txn.commit()

    def test_abort_discards(self, kind):
        with make_backend(kind) as backend:
            create_t(backend)
            backend.bulk_insert("t", [(1, "keep")])
            txn = backend.begin()
            txn.insert("t", (2, "drop"))
            assert txn.is_active
            txn.abort()
            assert not txn.is_active
            assert backend.dump_table("t") == [(1, "keep")]

    def test_sim_now_advances(self, kind):
        with make_backend(kind) as backend:
            create_t(backend)
            before = backend.sim_now
            backend.bulk_insert("t", [(i, "x") for i in range(30)])
            assert backend.sim_now > before
            mid = backend.sim_now
            backend.advance_clock(1.5)
            assert backend.sim_now >= mid + 1.5

    def test_vacuum_and_flush(self, kind):
        with make_backend(kind) as backend:
            create_t(backend)
            backend.bulk_insert("t", [(i, "x") for i in range(10)])
            txn = backend.begin()
            for hit in txn.range_hits("ix", None, None):
                txn.update("t", hit, {"val": "y"})
            txn.commit()
            backend.vacuum("t")
            backend.flush_all()
            assert backend.dump_table("t") == [
                (i, "y") for i in range(10)]


# ------------------------------------------------------------- sharded load

class TestShardAwareLoad:
    def test_bulk_insert_partitions_by_shard_key(self):
        router = ShardedDatabase(EngineConfig(), ShardConfig(shards=4))
        backend = ShardedBackend(router)
        create_t(backend)
        n = backend.bulk_insert("t", [(i, f"v{i}") for i in range(100)])
        assert n == 100
        per_shard = []
        rtxn = router.begin()
        positions = router.shard_key_positions("t")
        for k, db in enumerate(router.shards):
            local = db.seq_scan(rtxn.on(k), "t")
            for row in local:
                key = tuple(row[p] for p in positions)
                assert router.partitioner.shard_of(key) == k, (
                    f"row {row} loaded on wrong shard {k}")
            per_shard.append(len(local))
        router.commit(rtxn)
        assert sum(per_shard) == 100
        assert sum(1 for c in per_shard if c > 0) >= 2, (
            "bulk load left the keyspace on one shard")
        assert backend.dump_table("t") == [
            (i, f"v{i}") for i in range(100)]

    def test_bulk_insert_commits_in_chunks(self):
        router = ShardedDatabase(EngineConfig(), ShardConfig(shards=2))
        backend = ShardedBackend(router)
        create_t(backend)
        backend.bulk_insert("t", [(i, "x") for i in range(40)],
                            rows_per_txn=10)
        assert len(backend.dump_table("t")) == 40

    @pytest.mark.parametrize("kind", ["database", "sharded"])
    def test_bulk_rows_per_txn_must_be_positive(self, kind):
        with make_backend(kind) as backend:
            create_t(backend)
            with pytest.raises(ConfigError, match="rows_per_txn"):
                backend.bulk_insert("t", [(1, "a")], rows_per_txn=0)
            assert backend.dump_table("t") == []

    def test_update_moves_row_between_shards(self):
        with make_backend("sharded") as backend:
            create_t(backend)
            backend.bulk_insert("t", [(i, f"v{i}") for i in range(16)])
            router = backend.router  # type: ignore[attr-defined]
            src = router.partitioner.shard_of((5,))
            dst = next(k for k in range(4)
                       if router.partitioner.shard_of((k + 100,)) != src)
            txn = backend.begin()
            hit = txn.select_hits("ix", (5,))[0]
            assert hit.shard == src
            txn.update("t", hit, {"id": dst + 100})
            txn.commit()
            txn = backend.begin()
            assert txn.select("ix", (5,)) == []
            moved = txn.select_hits("ix", (dst + 100,))
            assert [h.row for h in moved] == [(dst + 100, "v5")]
            assert moved[0].shard == router.partitioner.shard_of(
                (dst + 100,))
            txn.commit()


# ------------------------------------------------------- bounded fan-out

class TestSingleSlotRouting:
    def make(self):
        router = ShardedDatabase(OBS, ShardConfig(shards=4))
        backend = ShardedBackend(router)
        create_t(backend)
        backend.bulk_insert("t", [(i, f"v{i}") for i in range(64)])
        return router, backend

    def test_pinned_bounds_route_to_one_shard(self):
        router, backend = self.make()
        txn = router.begin()
        plan = router.explain_scan(txn, "ix", (9,), (9,))
        router.commit(txn)
        assert plan["routing"]["plan"] == "single-slot"
        assert plan["routing"]["fanout"] == 1
        assert plan["routing"]["shards"] == [
            router.partitioner.shard_of((9,))]

    def test_open_bounds_still_scatter(self):
        router, backend = self.make()
        txn = router.begin()
        scatter = router.explain_scan(txn, "ix", (3,), (9,))
        unbounded = router.explain_scan(txn, "ix", None, None)
        exclusive = router.explain_scan(txn, "ix", (9,), (9,),
                                        hi_incl=False)
        router.commit(txn)
        for plan in (scatter, unbounded):
            assert plan["routing"]["plan"] == "scatter-merge"
            assert plan["routing"]["fanout"] == 4
        # an exclusive (empty) range between equal bounds still pins one
        # shard key: its owner is the only shard worth asking
        assert exclusive["routing"]["plan"] == "single-slot"
        assert exclusive["routing"]["shards"] == [
            router.partitioner.shard_of((9,))]

    def test_slot_routed_metric_and_results(self):
        router, backend = self.make()
        reg = router.obs.registry
        before = reg.counter_value("shard.queries.slot_routed")
        txn = backend.begin()
        rows = txn.range_select("ix", (9,), (9,))
        txn.commit()
        assert rows == [(9, "v9")]
        assert reg.counter_value("shard.queries.slot_routed") == before + 1

    def test_single_slot_matches_scatter_results(self):
        router, backend = self.make()
        txn = backend.begin()
        for key in range(64):
            pinned = txn.range_select("ix", (key,), (key,))
            wide = [r for r in txn.range_select("ix", None, None)
                    if r[0] == key]
            assert pinned == wide
        txn.commit()


# ------------------------------------------------------------ scatter reads

def record_shard_reads(monkeypatch, router: ShardedDatabase, owner,
                       method: str) -> list[tuple[int, int]]:
    """Log ``(shard, thread id)`` for every call of ``method`` on each
    shard's ``owner(db)``."""
    calls: list[tuple[int, int]] = []
    for k, db in enumerate(router.shards):
        target = owner(db)
        inner = getattr(target, method)

        def wrapped(*args, _k=k, _inner=inner, **kwargs):
            calls.append((_k, threading.get_ident()))
            return _inner(*args, **kwargs)

        monkeypatch.setattr(target, method, wrapped)
    return calls


class TestScatterReads:
    """A scatter read is a plain loop over its shards or legs: shard
    order, on the caller's thread, one router count per read."""

    ROWS = [(i, f"v{i % 10}") for i in range(40)]

    def make(self):
        router = ShardedDatabase(OBS, ShardConfig(shards=4))
        backend = ShardedBackend(router)
        create_t(backend)
        backend.create_index("val_ix", "t", ["val"])
        backend.bulk_insert("t", self.ROWS)
        return router

    def test_point_scatter_visits_every_shard_in_order(self, monkeypatch):
        router = self.make()
        calls = record_shard_reads(monkeypatch, router, lambda db: db,
                                   "select")
        reg = router.obs.registry
        before = (reg.counter_value("shard.queries.point"),
                  reg.counter_value("shard.queries.fanout"))
        txn = router.begin()
        rows = router.select(txn, "val_ix", ("v3",))
        router.commit(txn)
        assert sorted(rows) == [r for r in self.ROWS if r[1] == "v3"]
        me = threading.get_ident()
        assert calls == [(k, me) for k in range(4)]
        assert (reg.counter_value("shard.queries.point"),
                reg.counter_value("shard.queries.fanout")) \
            == (before[0] + 1, before[1] + 4)

    def test_range_scatter_visits_legs_in_shard_order(self, monkeypatch):
        router = self.make()
        calls = record_shard_reads(monkeypatch, router, lambda db: db,
                                   "range_select")
        reg = router.obs.registry
        before = reg.counter_value("shard.queries.scan")
        txn = router.begin()
        rows = router.range_select(txn, "ix", None, None)
        router.commit(txn)
        assert rows == self.ROWS
        me = threading.get_ident()
        assert calls == [(k, me) for k in range(4)]
        assert reg.counter_value("shard.queries.scan") == before + 1

    def test_seq_scan_visits_shards_in_order(self, monkeypatch):
        router = self.make()
        calls = record_shard_reads(
            monkeypatch, router, lambda db: db.catalog.table("t").store,
            "scan_visible")
        txn = router.begin()
        rows = router.seq_scan(txn, "t")
        router.commit(txn)
        assert sorted(rows) == self.ROWS
        me = threading.get_ident()
        assert calls == [(k, me) for k in range(4)]

    def test_index_slices_pull_one_run_per_leg_in_order(self, monkeypatch):
        router = self.make()
        calls = record_shard_reads(monkeypatch, router,
                                   lambda db: db.executor, "pull_slice")
        plan = router.plan_scan("ix", None, None)
        txn = router.begin()
        slices = router.pull_index_slices(txn, "ix", plan.legs, 3)
        router.commit(txn)
        assert len(slices) == len(plan.legs) == 4
        me = threading.get_ident()
        assert calls == [(leg.shard, me) for leg in plan.legs]

    def test_first_failing_shard_stops_the_scatter(self, monkeypatch):
        router = self.make()
        calls = record_shard_reads(monkeypatch, router, lambda db: db,
                                   "range_select")
        for k in (1, 3):
            def boom(*_args, _k=k, **_kwargs):
                calls.append((_k, threading.get_ident()))
                raise WorkloadError(f"boom{_k}")
            monkeypatch.setattr(router.shards[k], "range_select", boom)
        txn = router.begin()
        with pytest.raises(WorkloadError, match="boom1"):
            router.range_select(txn, "ix", None, None)
        assert [k for k, _thread in calls] == [0, 1]

    def test_shard_server_reads_on_the_session_thread(self, monkeypatch):
        router = self.make()
        calls = record_shard_reads(monkeypatch, router, lambda db: db,
                                   "range_select")
        client_threads: list[int] = []

        def client(session):
            client_threads.append(threading.get_ident())
            session.begin()
            rows = session.range_select("ix", None, None)
            session.commit()
            return rows

        with router.serve(ServeConfig(max_sessions=2)) as server:
            results = SessionExecutor(server, workers=2).run(
                [client, client])
        assert results == [self.ROWS, self.ROWS]
        assert sorted(calls) == sorted((k, thread) for thread
                                       in client_threads for k in range(4))

    def test_serving_attaches_nothing_to_the_router(self):
        router = self.make()
        before = dict(vars(router))
        with router.serve() as server, server.session() as session:
            session.begin()
            assert session.select("ix", (5,)) == [(5, "v5")]
            session.commit()
        after = vars(router)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


# ------------------------------------------------------ serve-layer hit API

class TestServeHitAPIs:
    def test_session_hit_dml(self):
        db = Database(EngineConfig())
        db.create_table("t", [("id", "int"), ("val", "str")])
        db.create_index("ix", "t", ["id"], kind="mvpbt")
        with db.serve() as server, server.session() as session:
            session.begin()
            for i in range(10):
                session.insert("t", (i, f"v{i}"))
            session.commit()
            session.begin()
            hits = session.select_hits("ix", (4,))
            session.update_row("t", hits[0].rid, hits[0].version,
                               {"val": "V4"})
            dead = session.select_hits("ix", (5,))
            session.delete_row("t", dead[0].rid, dead[0].version)
            session.commit()
            session.begin()
            assert session.select("ix", (4,)) == [(4, "V4")]
            assert session.select("ix", (5,)) == []
            ranged = session.range_hits("ix", (2,), (4,))
            assert [h.row for h in ranged] == [
                (2, "v2"), (3, "v3"), (4, "V4")]
            session.commit()

    def test_shard_session_hit_dml(self):
        router = ShardedDatabase(EngineConfig(), ShardConfig(shards=2))
        router.create_table("t", [("id", "int"), ("val", "str")], "sias")
        router.create_index("ix", "t", ["id"], kind="mvpbt")
        with router.serve() as server, server.session() as session:
            session.begin()
            for i in range(10):
                session.insert("t", (i, f"v{i}"))
            session.commit()
            session.begin()
            tagged = session.select_hits("ix", (4,))
            shard, hit = tagged[0]
            assert shard == router.partitioner.shard_of((4,))
            session.update_hit("t", shard, hit, {"val": "V4"})
            dshard, dhit = session.select_hits("ix", (5,))[0]
            session.delete_hit("t", dshard, dhit)
            session.commit()
            session.begin()
            assert session.select("ix", (4,)) == [(4, "V4")]
            assert session.select("ix", (5,)) == []
            ranged = session.range_hits("ix", (2,), (4,))
            assert [h.row for _s, h in ranged] == [
                (2, "v2"), (3, "v3"), (4, "V4")]
            session.commit()

    def test_server_backend_pools_sessions(self):
        with make_backend("server") as backend:
            create_t(backend)
            backend.bulk_insert("t", [(1, "a"), (2, "b")])
            olap = backend.begin()
            oltp = backend.begin()   # olap still open: second session
            assert backend.server.active_sessions == 2  # type: ignore[attr-defined]
            oltp.insert("t", (3, "c"))
            oltp.commit()
            # olap's snapshot predates the insert
            assert len(olap.analytic_rows("ix", None, None)) == 2
            olap.commit()
            reused = backend.begin()  # pool reuse, no third session
            assert backend.server.active_sessions == 2  # type: ignore[attr-defined]
            reused.commit()
