"""Unit tests: shard router building blocks + regression pins.

Covers the partitioners, the coordinator's allocation/decision/layout
log, the ``_intersect`` span clipper, router validation and routing
behavior, the ``shard.*`` metrics and explain plans — plus regression
tests for the single-node assumptions the sharding work uncovered:
``Database(clock=...)`` injection, ``TransactionManager.begin_adopted``
and ``Database.recover(extra_committed=..., txid_floor=...)``.
"""

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (ConfigError, IndexError_,
                          TransactionStateError, UniqueViolationError,
                          WriteConflictError)
from repro.obs.config import ObsConfig
from repro.shard import (HashPartitioner, RangePartitioner, ShardConfig,
                         ShardCoordinator, ShardedDatabase,
                         partitioner_from_state)
from repro.shard.router import _intersect
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.txn.status import TxnStatus

pytestmark = pytest.mark.shard

OBS = EngineConfig(obs=ObsConfig(enabled=True))


def make_router(shards=4, partitioning="hash", config=None, **kw):
    cuts = kw.pop("range_cuts", None)
    if partitioning == "range" and cuts is None:
        cuts = [((100 * (i + 1)) // shards,) for i in range(shards - 1)]
    sdb = ShardedDatabase(config or OBS, ShardConfig(
        shards=shards, partitioning=partitioning, range_cuts=cuts, **kw))
    sdb.create_table("t", [("id", "int"), ("val", "str")], "sias")
    sdb.create_index("ix", "t", ["id"], kind="mvpbt", enable_gc=False)
    return sdb


def fill(sdb, keys):
    txn = sdb.begin()
    for k in keys:
        sdb.insert(txn, "t", (k, f"v{k}"))
    txn.commit()
    return txn.id


# ------------------------------------------------------------- partitioners

class TestPartitioners:
    def test_hash_owner_is_stable_and_in_range(self):
        p = HashPartitioner(4, slots=64)
        owners = [p.shard_of((k,)) for k in range(100)]
        assert all(0 <= o < 4 for o in owners)
        assert owners == [p.shard_of((k,)) for k in range(100)]
        assert len(set(owners)) == 4, "100 keys should hit all 4 shards"

    def test_hash_is_content_based_not_id_based(self):
        # determinism across processes: crc32 of the encoded key, never
        # Python hash() (PYTHONHASHSEED would change layouts)
        p = HashPartitioner(4, slots=64)
        q = HashPartitioner(4, slots=64)
        assert [p.shard_of((k,)) for k in range(50)] == \
            [q.shard_of((k,)) for k in range(50)]

    def test_memoised_slot_is_the_crc_of_the_encoded_key(self):
        """The ``slot_of`` memo must never move a placement: keys that
        compare (and hash) equal but encode apart — 1 / 1.0, 0 / 0.0 /
        -0.0 — keep their own slots whichever was asked first, and the
        slot count is part of the memo key."""
        import zlib

        from repro.storage.keycodec import encode_key

        keys = [(1,), (1.0,), (True,), (0,), (0.0,), (-0.0,), (2, -0.0),
                (2, 0.0), ("a", 7), (None,), (7, "a", 1.5)]
        for order in (keys, keys[::-1]):
            for slots in (8, 64):
                p = HashPartitioner(4, slots=slots)
                for key in order * 2:
                    assert p.slot_of(key) == \
                        zlib.crc32(encode_key(key)) % slots, (key, slots)

    def test_hash_move_slot(self):
        p = HashPartitioner(2, slots=8)
        key = (7,)
        assert 0 <= p.slot_of(key) < 8
        for s in range(8):
            p = p.move_slot(s, 1)
        assert p.shard_of(key) == 1

    def test_hash_state_round_trip(self):
        p = HashPartitioner(4, slots=16)
        p = p.move_slot(3, 2)
        q = partitioner_from_state(p.to_state())
        assert [q.shard_of((k,)) for k in range(40)] == \
            [p.shard_of((k,)) for k in range(40)]

    def test_range_ownership_and_groups(self):
        p = RangePartitioner(3, [(10,), (20,)])
        assert p.shard_of((0,)) == 0
        assert p.shard_of((9,)) == 0
        assert p.shard_of((10,)) == 1
        assert p.shard_of((19,)) == 1
        assert p.shard_of((20,)) == 2
        groups = p.owner_groups()
        assert [g[2] for g in groups] == [0, 1, 2]
        assert groups[0][0] is None and groups[-1][1] is None

    def test_range_move_and_coalesce(self):
        p = RangePartitioner(2, [(50,)])
        p = p.move_range((20,), (30,), 1)
        assert p.shard_of((25,)) == 1
        assert p.shard_of((19,)) == 0
        assert p.shard_of((30,)) == 0
        q = partitioner_from_state(p.to_state())
        assert [q.shard_of((k,)) for k in range(100)] == \
            [p.shard_of((k,)) for k in range(100)]

    def test_range_groups_coalesce_adjacent_same_owner(self):
        p = RangePartitioner(2, [(50,)])
        p = p.move_range((50,), (60,), 0)  # 0 now owns [None, 60)
        groups = p.owner_groups()
        assert groups[0] == (None, (60,), 0)


# -------------------------------------------------------------- _intersect

class TestIntersect:
    def test_unbounded_query_takes_span(self):
        assert _intersect(None, True, None, True, (10,), (20,)) == \
            ((10,), True, (20,), False)

    def test_disjoint_returns_none(self):
        assert _intersect((30,), True, None, True, (10,), (20,)) is None
        assert _intersect(None, True, (5,), True, (10,), (20,)) is None

    def test_boundary_exclusive_span_hi(self):
        # query hi == span hi: span hi is EXCLUSIVE so it tightens
        assert _intersect(None, True, (20,), True, (10,), (20,)) == \
            ((10,), True, (20,), False)

    def test_inner_query_unchanged(self):
        assert _intersect((12,), False, (18,), True, (10,), (20,)) == \
            ((12,), False, (18,), True)

    def test_open_ended_span(self):
        assert _intersect((5,), True, (15,), True, None, (20,)) == \
            ((5,), True, (15,), True)
        assert _intersect((5,), True, (15,), True, (10,), None) == \
            ((10,), True, (15,), True)


# ------------------------------------------------------------- coordinator

class TestCoordinator:
    def test_snapshot_capture(self):
        c = ShardCoordinator(HashPartitioner(2, slots=4))
        t1, s1 = c.begin()
        t2, s2 = c.begin()
        assert (t1, t2) == (1, 2)
        assert s1.active == frozenset()
        assert s2.active == frozenset({1})
        c.finish(t1)
        _, s3 = c.begin()
        assert 1 not in s3.active and 2 in s3.active

    def _coord_file(self):
        clock = SimClock()
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        return PageFile("coord", device, 512, 4)

    def test_decision_and_layout_recover(self):
        f = self._coord_file()
        c = ShardCoordinator(RangePartitioner(2, [(50,)]), log_file=f)
        c.begin()
        c.log_decision(1)
        c.partitioner = c.partitioner.move_range((10,), (20,), 1)
        c.log_layout()
        r = ShardCoordinator.recover(f, next_floor=c.next_txid)
        assert r.decisions == {1}
        assert r.partitioner.shard_of((15,)) == 1
        assert r.partitioner.shard_of((5,)) == 0
        assert r.next_txid >= c.next_txid

    def test_next_floor_prevents_txid_reuse(self):
        f = self._coord_file()
        c = ShardCoordinator(HashPartitioner(1, slots=4), log_file=f)
        for _ in range(5):
            c.begin()   # ids handed out, none decided
        r = ShardCoordinator.recover(f, next_floor=c.next_txid)
        assert r.next_txid == 6


# ----------------------------------------------- single-node regression pins

class TestSingleNodeHooks:
    def test_database_clock_injection(self):
        clock = SimClock()
        clock.advance(42.0)
        db = Database(EngineConfig(), clock=clock)
        assert db.clock is clock
        assert db.txn.clock is clock or db.clock.now >= 42.0

    def test_begin_adopted_registers_and_bumps_allocator(self):
        db = Database(EngineConfig())
        t_local = db.begin()
        t_local.commit()
        coord = ShardCoordinator(HashPartitioner(1, slots=4))
        coord.begin()  # consume id 1 to diverge the allocators
        txid, snap = coord.begin()
        adopted = db.txn.begin_adopted(txid, snap)
        assert adopted.id == txid
        adopted.commit()
        assert db.txn.status_of(txid) is TxnStatus.COMMITTED
        assert db.begin().id > txid, "local allocator must skip adopted id"

    def test_begin_adopted_rejects_duplicates_and_decided(self):
        db = Database(EngineConfig())
        coord = ShardCoordinator(HashPartitioner(1, slots=4))
        txid, snap = coord.begin()
        db.txn.begin_adopted(txid, snap)
        with pytest.raises(TransactionStateError):
            db.txn.begin_adopted(txid, snap)

    def test_recover_extra_committed_and_floor(self):
        db = Database(EngineConfig(durability=True))
        db.create_table("t", [("id", "int")], "sias")
        db.create_index("ix", "t", ["id"], kind="mvpbt", enable_gc=False)
        txn = db.begin()
        db.insert(txn, "t", (1,))
        txn.commit()
        # a txid this node never saw DML from, decided elsewhere
        ghost = txn.id + 7
        r = Database.recover(db, extra_committed={ghost},
                             txid_floor=ghost + 100)
        assert r.txn.status_of(txn.id) is TxnStatus.COMMITTED
        assert r.txn.status_of(ghost) is TxnStatus.COMMITTED
        assert r.begin().id >= ghost + 100


# ------------------------------------------------------------------ router

class TestRouterValidation:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ShardConfig(shards=0)
        with pytest.raises(ConfigError):
            ShardConfig(shards=2, partitioning="modulo")
        with pytest.raises(ConfigError):
            ShardedDatabase(EngineConfig(), ShardConfig(
                shards=2, partitioning="range"))  # missing cuts

    def test_delta_storage_rejected(self):
        sdb = ShardedDatabase(EngineConfig(), ShardConfig(shards=2))
        with pytest.raises(ConfigError):
            sdb.create_table("d", [("id", "int")], "delta")

    def test_unique_index_must_cover_shard_key(self):
        sdb = ShardedDatabase(EngineConfig(), ShardConfig(shards=2))
        sdb.create_table("t", [("id", "int"), ("val", "str")], "sias")
        with pytest.raises(ConfigError):
            sdb.create_index("u", "t", ["val"], unique=True)
        sdb.create_index("u", "t", ["id"], unique=True,
                         enable_gc=False)  # shard-key unique is fine

    def test_unique_on_shard_key_enforced_globally(self):
        sdb = ShardedDatabase(EngineConfig(), ShardConfig(shards=4))
        sdb.create_table("t", [("id", "int"), ("val", "str")], "sias")
        sdb.create_index("u", "t", ["id"], unique=True, enable_gc=False)
        txn = sdb.begin()
        sdb.insert(txn, "t", (5, "a"))
        txn.commit()
        txn = sdb.begin()
        with pytest.raises(UniqueViolationError):
            sdb.insert(txn, "t", (5, "b"))
        txn.abort()


class TestRouterBehavior:
    def test_point_lookup_is_single_shard(self):
        sdb = make_router(4, "hash")
        fill(sdb, range(30))
        before = sdb.obs.registry.counter_value("shard.queries.fanout")
        txn = sdb.begin()
        assert sdb.select(txn, "ix", (7,)) == [(7, "v7")]
        txn.abort()
        after = sdb.obs.registry.counter_value("shard.queries.fanout")
        assert after - before == 1, "routing index point op fans to ONE"

    def test_range_scan_spans_only_owners(self):
        sdb = make_router(4, "range")
        fill(sdb, range(100))
        txn = sdb.begin()
        plan = sdb.explain_scan(txn, "ix", (5,), (20,))
        assert plan["routing"]["plan"] == "span-concatenation"
        assert plan["routing"]["fanout"] == 1
        rows = sdb.range_select(txn, "ix", (5,), (20,))
        assert [k for k, _v in rows] == list(range(5, 21))
        txn.abort()

    def test_hash_scan_scatters_everywhere_sorted(self):
        sdb = make_router(4, "hash")
        fill(sdb, range(60))
        txn = sdb.begin()
        plan = sdb.explain_scan(txn, "ix", None, None)
        assert plan["routing"]["plan"] == "scatter-merge"
        assert plan["routing"]["fanout"] == 4
        rows = sdb.range_select(txn, "ix", None, None)
        assert [k for k, _v in rows] == sorted(range(60)), \
            "scatter-gather must k-way merge into key order"
        txn.abort()

    def test_commit_metrics_classify_2pc(self):
        sdb = make_router(4, "hash",
                          config=EngineConfig(durability=True,
                                              obs=ObsConfig(enabled=True)))
        reg = sdb.obs.registry
        txn = sdb.begin()          # read-only
        txn.commit()
        fill(sdb, range(20))       # cross-shard (2PC)
        txn = sdb.begin()          # single-shard
        sdb.update_by_key(txn, "ix", (3,), {"val": "x"})
        txn.commit()
        assert reg.counter_value("shard.txn.commits.read_only") == 1
        assert reg.counter_value("shard.txn.commits.cross_shard") == 1
        assert reg.counter_value("shard.txn.commits.single_shard") == 1
        assert reg.counter_value("shard.2pc.decisions") == 1
        assert reg.counter_value("shard.2pc.prepares") == 4
        assert len(sdb.coordinator.decisions) == 1
        # phase two wrote nothing: four markers staged, four prepare
        # appends plus the single-shard commit's one on the shards
        shard_cv = [db.obs.registry.counter_value for db in sdb.shards]
        assert sum(cv("wal.markers_deferred") for cv in shard_cv) == 4
        assert sum(cv("wal.appends") for cv in shard_cv) == 5

    def test_cross_shard_move_changes_owner(self):
        sdb = make_router(2, "range", range_cuts=[(50,)])
        fill(sdb, [10])
        assert sdb._owner_of_row("t", (10, "v10")) == 0
        txn = sdb.begin()
        sdb.update_by_key(txn, "ix", (10,), {"id": 80})
        txn.commit()
        txn = sdb.begin()
        assert sdb.select(txn, "ix", (10,)) == []
        assert sdb.select(txn, "ix", (80,)) == [(80, "v10")]
        assert sdb._owner_of_row("t", (80, "v10")) == 1
        txn.abort()

    def test_write_conflict_raises_through_router(self):
        sdb = make_router(2, "hash")
        fill(sdb, [1])
        t1 = sdb.begin()
        t2 = sdb.begin()
        sdb.update_by_key(t1, "ix", (1,), {"val": "a"})
        with pytest.raises(WriteConflictError):
            sdb.update_by_key(t2, "ix", (1,), {"val": "b"})
        t1.commit()
        t2.abort()

    def test_run_transaction_commits_and_returns(self):
        sdb = make_router(2, "hash")

        def work(txn):
            sdb.insert(txn, "t", (1, "a"))
            sdb.insert(txn, "t", (2, "b"))
            return "done"

        assert sdb.run_transaction(work) == "done"
        txn = sdb.begin()
        assert sdb.count_range(txn, "ix", None, None) == 2
        txn.abort()

    def test_abort_leaves_no_trace(self):
        sdb = make_router(4, "hash")
        fill(sdb, range(10))
        txn = sdb.begin()
        sdb.insert(txn, "t", (99, "z"))
        sdb.delete_by_key(txn, "ix", (3,))
        txn.abort()
        txn = sdb.begin()
        assert sdb.select(txn, "ix", (99,)) == []
        assert sdb.select(txn, "ix", (3,)) == [(3, "v3")]
        assert sdb.obs.registry.counter_value("shard.txn.aborts") == 1
        txn.abort()

    def test_seq_scan_merges_all_shards(self):
        sdb = make_router(4, "hash")
        fill(sdb, range(25))
        txn = sdb.begin()
        rows = sdb.seq_scan(txn, "t")
        assert sorted(rows) == [(k, f"v{k}") for k in range(25)]
        txn.abort()

    def test_explain_lookup_shape(self):
        sdb = make_router(4, "hash")
        fill(sdb, range(10))
        txn = sdb.begin()
        plan = sdb.explain_lookup(txn, "ix", (4,))
        assert plan["routing"]["fanout"] == 1
        [shard] = plan["routing"]["shards"]
        assert shard == sdb.partitioner.shard_of((4,))
        assert str(shard) in plan["per_shard"] or \
            shard in plan["per_shard"]
        txn.abort()

    def test_metrics_snapshot_shape(self):
        sdb = make_router(2, "hash")
        fill(sdb, range(10))
        snap = sdb.metrics_snapshot()
        assert "router" in snap and len(snap["shards"]) == 2
        stats = sdb.stats()
        assert stats["shards"] == 2
        assert stats["coordinator"]["next_txid"] >= 2

    def test_independent_clocks_advance_independently(self):
        sdb = make_router(2, "range", range_cuts=[(50,)])
        fill(sdb, [1, 2, 3])   # all on shard 0
        assert sdb.shards[0].clock.now > sdb.shards[1].clock.now
        assert sdb.sim_now >= max(db.clock.now for db in sdb.shards)


class TestRebalance:
    def test_move_range_preserves_history(self):
        sdb = make_router(2, "range", range_cuts=[(50,)])
        fill(sdb, range(0, 40, 2))
        held = sdb.begin()                    # snapshot BEFORE the updates
        txn = sdb.begin()
        for k in range(0, 40, 4):
            sdb.update_by_key(txn, "ix", (k,), {"val": f"new{k}"})
        txn.commit()
        summary = sdb.move_range((0,), (30,), 1)
        assert summary["records_moved"] > 0
        assert summary["versions_moved"] >= summary["chains_moved"]
        # held snapshot still sees ONLY the original values
        rows = dict(sdb.range_select(held, "ix", None, None))
        assert rows == {k: f"v{k}" for k in range(0, 40, 2)}
        held.abort()
        txn = sdb.begin()
        rows = dict(sdb.range_select(txn, "ix", None, None))
        want = {k: (f"new{k}" if k % 4 == 0 else f"v{k}")
                for k in range(0, 40, 2)}
        assert rows == want
        txn.abort()
        assert sdb.obs.registry.counter_value("shard.rebalance.count") == 1

    def test_move_slot_requires_hash_and_vice_versa(self):
        sdb = make_router(2, "range", range_cuts=[(50,)])
        with pytest.raises(ConfigError):
            sdb.move_slot(0, 1)
        sdb2 = make_router(2, "hash")
        with pytest.raises(ConfigError):
            sdb2.move_range((0,), (10,), 1)

    def test_rebalance_rejected_with_pending_writes(self):
        sdb = make_router(2, "hash")
        txn = sdb.begin()
        sdb.insert(txn, "t", (1, "a"))
        with pytest.raises(IndexError_):
            sdb.move_slot(0, 1)
        txn.commit()
