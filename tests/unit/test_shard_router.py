"""Unit tests: shard router building blocks + regression pins.

Covers the hash partitioner, the coordinator's allocation/decision/
layout log, router validation and routing behavior, the ``shard.*``
metrics and explain plans — plus regression tests for the single-node
assumptions the sharding work uncovered:
``TransactionManager.begin_adopted`` and
``Database.recover(durable=...)``.
"""

import json
import random
from collections import Counter

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (ConfigError, IndexError_,
                          TransactionStateError, UniqueViolationError,
                          WriteConflictError)
from repro.obs.config import ObsConfig
from repro.shard import (HashPartitioner, ShardConfig, ShardCoordinator,
                         ShardedDatabase)
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.txn.status import TxnStatus

pytestmark = pytest.mark.shard

OBS = EngineConfig(obs=ObsConfig(enabled=True))


def make_router(shards=4, config=None, **kw):
    sdb = ShardedDatabase(config or OBS, ShardConfig(shards=shards, **kw))
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
        q = HashPartitioner.from_state(p.to_state())
        assert [q.shard_of((k,)) for k in range(40)] == \
            [p.shard_of((k,)) for k in range(40)]

    def test_layout_note_state_is_pinned(self):
        """The coordinator logs ``to_state()`` as its layout NOTE: these
        exact bytes are on every durable coordinator device."""
        state = HashPartitioner(2, slots=4).move_slot(1, 0).to_state()
        assert state == {"kind": "hash", "shards": 2, "slots": 4,
                         "owners": [0, 0, 0, 1]}
        assert json.dumps(state, sort_keys=True) == (
            '{"kind": "hash", "owners": [0, 0, 0, 1], "shards": 2, '
            '"slots": 4}')

    def test_from_state_does_not_read_kind(self):
        state = HashPartitioner(3, slots=8).move_slot(5, 0).to_state()
        del state["kind"]
        q = HashPartitioner.from_state(state)
        assert q.to_state()["owners"] == state["owners"]
        assert q.to_state()["kind"] == "hash"

    def test_default_owners_deal_slots_round_robin(self):
        p = HashPartitioner(3, slots=8)
        assert p.to_state()["owners"] == [0, 1, 2, 0, 1, 2, 0, 1]

    @pytest.mark.parametrize("shards, owners, slots", [
        pytest.param(0, None, 4, id="no-shards"),
        pytest.param(2, None, 0, id="no-slots"),
        pytest.param(2, [0, 1, 0], 4, id="owners-short"),
        pytest.param(2, [0, 1, 2, 0], 4, id="owner-out-of-range"),
    ])
    def test_bad_layout_rejected(self, shards, owners, slots):
        with pytest.raises(ConfigError):
            HashPartitioner(shards, owners, slots)

    @pytest.mark.parametrize("slot, dst", [
        pytest.param(-1, 0, id="slot-negative"),
        pytest.param(8, 0, id="slot-past-end"),
        pytest.param(3, 2, id="dst-out-of-range"),
    ])
    def test_move_slot_rejects(self, slot, dst):
        with pytest.raises(ConfigError):
            HashPartitioner(2, slots=8).move_slot(slot, dst)

    def test_move_slot_leaves_the_original_unchanged(self):
        """A rebalance swaps in a new partitioner: the old one is what
        held snapshots and in-flight plans still route by."""
        p = HashPartitioner(2, slots=8)
        before = p.to_state()
        q = p.move_slot(0, 1)
        assert p.to_state() == before
        assert q.to_state()["owners"][0] == 1 and q is not p

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
        c = ShardCoordinator(HashPartitioner(2, slots=4), log_file=f)
        c.begin()
        c.log_decision(1)
        key = (15,)
        moved = 1 - c.partitioner.shard_of(key)
        c.partitioner = c.partitioner.move_slot(
            c.partitioner.slot_of(key), moved)
        c.log_layout()
        r = ShardCoordinator.recover(f, next_floor=c.next_txid)
        assert r.decisions == {1}
        assert r.partitioner.shard_of(key) == moved
        assert r.partitioner.to_state() == c.partitioner.to_state()
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
        # a txid this node never saw DML from, decided elsewhere, folded
        # into the handed-over state with a floor above it
        ghost = txn.id + 7
        durable = db.reboot_and_read()
        r = Database.recover(db, durable=durable._replace(
            committed=durable.committed | {ghost}, next_txid=ghost + 100))
        assert r.txn.status_of(txn.id) is TxnStatus.COMMITTED
        assert r.txn.status_of(ghost) is TxnStatus.COMMITTED
        assert r.begin().id >= ghost + 100


# ------------------------------------------------------------------ router

class TestRouterValidation:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ShardConfig(shards=0)

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
        sdb = make_router(4)
        fill(sdb, range(30))
        before = sdb.obs.registry.counter_value("shard.queries.fanout")
        txn = sdb.begin()
        assert sdb.select(txn, "ix", (7,)) == [(7, "v7")]
        txn.abort()
        after = sdb.obs.registry.counter_value("shard.queries.fanout")
        assert after - before == 1, "routing index point op fans to ONE"

    def test_hash_scan_scatters_everywhere_sorted(self):
        sdb = make_router(4)
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
        sdb = make_router(4,
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
        sdb = make_router(2)
        shard_of = sdb.partitioner.shard_of
        src = next(k for k in range(100) if shard_of((k,)) == 0)
        dst = next(k for k in range(100) if shard_of((k,)) == 1)
        fill(sdb, [src])
        assert sdb._owner_of_row("t", (src, f"v{src}")) == 0
        txn = sdb.begin()
        sdb.update_by_key(txn, "ix", (src,), {"id": dst})
        txn.commit()
        txn = sdb.begin()
        assert sdb.select(txn, "ix", (src,)) == []
        assert sdb.select(txn, "ix", (dst,)) == [(dst, f"v{src}")]
        assert sdb._owner_of_row("t", (dst, f"v{src}")) == 1
        txn.abort()

    def test_write_conflict_raises_through_router(self):
        sdb = make_router(2)
        fill(sdb, [1])
        t1 = sdb.begin()
        t2 = sdb.begin()
        sdb.update_by_key(t1, "ix", (1,), {"val": "a"})
        with pytest.raises(WriteConflictError):
            sdb.update_by_key(t2, "ix", (1,), {"val": "b"})
        t1.commit()
        t2.abort()

    def test_abort_leaves_no_trace(self):
        sdb = make_router(4)
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
        sdb = make_router(4)
        fill(sdb, range(25))
        txn = sdb.begin()
        rows = sdb.seq_scan(txn, "t")
        assert sorted(rows) == [(k, f"v{k}") for k in range(25)]
        txn.abort()

    def test_metrics_snapshot_shape(self):
        sdb = make_router(2)
        fill(sdb, range(10))
        snap = sdb.metrics_snapshot()
        assert "router" in snap and len(snap["shards"]) == 2
        stats = sdb.stats()
        assert stats["shards"] == 2
        assert stats["coordinator"]["next_txid"] >= 2

    def test_independent_clocks_advance_independently(self):
        sdb = make_router(2)
        fill(sdb, [k for k in range(20)
                   if sdb.partitioner.shard_of((k,)) == 0][:3])
        assert sdb.shards[0].clock.now > sdb.shards[1].clock.now
        assert sdb.sim_now >= max(db.clock.now for db in sdb.shards)


def make_wd_router():
    """Shard key ``w``; indexes led by it, holding it second, and not
    holding it at all."""
    sdb = ShardedDatabase(OBS, ShardConfig(shards=4))
    sdb.create_table("o", [("w", "int"), ("d", "int"), ("val", "str")],
                     "sias", shard_key=["w"])
    for name, columns in (("ix_wd", ["w", "d"]), ("ix_dw", ["d", "w"]),
                          ("ix_d", ["d"])):
        sdb.create_index(name, "o", columns, kind="mvpbt", enable_gc=False)
    return sdb


class TestScanPlan:
    """``plan_scan``'s coverage rule: one leg only when every key between
    the bounds carries the same shard key, else every shard."""

    @pytest.mark.parametrize("index, lo, hi, pinned", [
        pytest.param("ix_wd", (3, 1), (3, 1), True, id="point-key"),
        pytest.param("ix_wd", (3, 0), (3, 9), True, id="same-shard-key"),
        pytest.param("ix_wd", (3,), (3,), True, id="shard-key-only"),
        pytest.param("ix_wd", (3, 0), (4, 0), False, id="two-shard-keys"),
        pytest.param("ix_wd", None, (3, 9), False, id="open-lo"),
        pytest.param("ix_wd", (3, 0), None, False, id="open-hi"),
        pytest.param("ix_dw", (1, 3), (1, 3), True, id="key-second"),
        pytest.param("ix_dw", (1,), (1,), False, id="bound-too-short"),
        pytest.param("ix_d", (1,), (1,), False, id="key-not-covered"),
    ])
    def test_plan_follows_the_coverage_rule(self, index, lo, hi, pinned):
        sdb = make_wd_router()
        plan = sdb.plan_scan(index, lo, hi)
        if pinned:
            owner = sdb.partitioner.shard_of((3,))
            assert plan.name == "single-slot"
            assert [leg.shard for leg in plan.legs] == [owner]
        else:
            assert plan.name == "scatter-merge"
            assert [leg.shard for leg in plan.legs] == [0, 1, 2, 3]
        assert all((leg.lo, leg.hi) == (lo, hi) for leg in plan.legs)

    def test_single_slot_owner_follows_a_rebalance(self):
        sdb = make_wd_router()
        owner = sdb.partitioner.shard_of((3,))
        moved = (owner + 1) % 4
        sdb.move_slot(sdb.partitioner.slot_of((3,)), moved)
        plan = sdb.plan_scan("ix_wd", (3, 0), (3, 9))
        assert [leg.shard for leg in plan.legs] == [moved]


class TestRebalance:
    def test_rebalance_preserves_history(self):
        sdb = make_router(2)
        fill(sdb, range(0, 40, 2))
        held = sdb.begin()                    # snapshot BEFORE the updates
        txn = sdb.begin()
        for k in range(0, 40, 4):
            sdb.update_by_key(txn, "ix", (k,), {"val": f"new{k}"})
        txn.commit()
        # one rebalance hands every updated key's slot to the other shard
        old = sdb.partitioner
        new = old
        for k in range(0, 40, 4):
            new = new.move_slot(old.slot_of((k,)), 1 - old.shard_of((k,)))
        summary = sdb.rebalance(new)
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

    def test_rebalance_summary_is_the_trace_event(self):
        sdb = make_router(2)
        fill(sdb, range(20))
        key = (4,)
        summary = sdb.move_slot(sdb.partitioner.slot_of(key),
                                1 - sdb.partitioner.shard_of(key))
        assert set(summary) == {"chains_moved", "versions_moved",
                                "records_moved"}
        [event] = [e for e in sdb.obs.tracer.events()
                   if e["name"] == "shard.rebalance"]
        assert event["attrs"] == summary

    def test_identity_rebalance_moves_nothing(self):
        sdb = make_router(2)
        fill(sdb, range(20))
        summary = sdb.rebalance(sdb.partitioner.move_slot(0, 0))
        assert summary == {"chains_moved": 0, "versions_moved": 0,
                           "records_moved": 0}
        txn = sdb.begin()
        assert len(sdb.range_select(txn, "ix", None, None)) == 20
        txn.abort()

    def test_rebalance_moves_no_aborted_run(self):
        """Each update past an aborted one leaves the aborted version as
        a chain of its own; a rebalance places the row once, not them."""
        sdb = make_router(2)
        fill(sdb, [4])
        for value in ("bad", "worse", "worst"):
            txn = sdb.begin()
            sdb.update_by_key(txn, "ix", (4,), {"val": value})
            txn.abort()
        owner = sdb.partitioner.shard_of((4,))
        summary = sdb.move_slot(sdb.partitioner.slot_of((4,)), 1 - owner)
        assert summary["chains_moved"] == 1
        dst = sdb.shards[1 - owner].catalog.table("t").store
        assert [[v.data for _rid, v in chain] for chain in dst.chains()] \
            == [[(4, "v4"), (4, "worst")]]
        txn = sdb.begin()
        assert sdb.range_select(txn, "ix", None, None) == [(4, "v4")]
        txn.abort()

    def test_rebalance_rejects_another_shard_count(self):
        sdb = make_router(2)
        with pytest.raises(IndexError_):
            sdb.rebalance(HashPartitioner(3, slots=64))

    def test_rebalance_rejected_with_pending_writes(self):
        sdb = make_router(2)
        txn = sdb.begin()
        sdb.insert(txn, "t", (1, "a"))
        with pytest.raises(IndexError_):
            sdb.move_slot(0, 1)
        txn.commit()


# ------------------------------------------------------ bulk-load placement

ITEMS = [(i, f"item-{i}") for i in range(1, 201)]
STOCK = [(w, i, 10) for w in range(1, 5) for i in range(1, 201)]


def make_stock_router(shards=4, config=None):
    """A wide-keyed ``item`` table beside a ``stock`` table whose shard key
    takes four values — TPC-C's shape in miniature."""
    sdb = ShardedDatabase(config or OBS, ShardConfig(shards=shards))
    sdb.create_table("item", [("i", "int"), ("name", "str")], "sias")
    sdb.create_index("ix_item", "item", ["i"], kind="mvpbt",
                     enable_gc=False)
    sdb.create_table("stock", [("w", "int"), ("i", "int"), ("qty", "int")],
                     "sias", shard_key=["w"])
    sdb.create_index("ix_stock", "stock", ["w", "i"], kind="mvpbt",
                     enable_gc=False)
    return sdb


def load_stock(sdb):
    sdb.bulk_load("item", ITEMS)
    sdb.bulk_load("stock", STOCK)


def read_all(sdb):
    txn = sdb.begin()
    rows = (sdb.range_select(txn, "ix_item", None, None),
            sdb.range_select(txn, "ix_stock", None, None))
    sdb.commit(txn)
    return rows


class TestPlacement:
    def test_heavy_slots_land_on_distinct_shards(self):
        sdb = make_stock_router()
        owners = {sdb.partitioner.shard_of((w,)) for w in range(1, 5)}
        assert len(owners) < 4, "round-robin slots must collide here"
        load_stock(sdb)
        assert sorted(sdb.partitioner.shard_of((w,))
                      for w in range(1, 5)) == [0, 1, 2, 3]
        assert read_all(sdb) == (ITEMS, STOCK)

    @pytest.mark.parametrize("seed", range(6))
    def test_uniform_load_balances_rows(self, seed):
        """Uniformly drawn keys fill the 64 slots unevenly (13 to 46
        rows here), which round-robin owners pass on to the shards."""
        sdb = make_router(4)
        keys = random.Random(seed).sample(range(10 ** 9), 2000)
        sdb.bulk_load("t", [(k, f"v{k}") for k in keys])
        per_shard = Counter(sdb.partitioner.shard_of((k,)) for k in keys)
        assert len(per_shard) == 4
        assert max(per_shard.values()) / (len(keys) / 4) <= 1.05
        txn = sdb.begin()
        assert len(sdb.range_select(txn, "ix", None, None)) == 2000
        sdb.commit(txn)

    def test_placement_is_deterministic(self):
        twins = [make_stock_router(), make_stock_router()]
        for sdb in twins:
            load_stock(sdb)
        assert twins[0].partitioner.to_state() == \
            twins[1].partitioner.to_state()

    def test_in_flight_writer_keeps_the_layout(self):
        sdb = make_stock_router()
        sdb.bulk_load("item", ITEMS)
        layout = sdb.partitioner.to_state()
        writer = sdb.begin()
        sdb.insert(writer, "item", (500, "late"))
        assert sdb.bulk_load("stock", STOCK) == len(STOCK)
        assert sdb.partitioner.to_state() == layout
        sdb.commit(writer)
        assert read_all(sdb) == (ITEMS + [(500, "late")], STOCK)

    def test_recovered_router_places_like_its_twin(self):
        durable = EngineConfig(durability=True)
        crashed, twin = (make_stock_router(config=durable)
                         for _ in range(2))
        for sdb in (crashed, twin):
            load_stock(sdb)
        recovered = ShardedDatabase.recover(crashed)
        more = [(i, f"extra-{i}") for i in range(1000, 1400)]
        for sdb in (recovered, twin):
            sdb.bulk_load("item", more)
        assert recovered.partitioner.to_state() == \
            twin.partitioner.to_state()
        assert read_all(recovered) == (ITEMS + more, STOCK)

    def test_one_shard_load_writes_no_layout(self):
        sdb = make_stock_router(1, EngineConfig(durability=True))
        log = sdb.coordinator.log
        before = log.bytes_written
        load_stock(sdb)
        assert log.bytes_written == before
        assert set(sdb.partitioner.owners) == {0}
