"""A global transaction joins a shard on first touch (DESIGN.md §16.2).

``ShardedDatabase.begin`` asks only the coordinator for a (txid,
snapshot); :meth:`ShardTransaction.on` opens a shard's member the first
time a statement reaches that shard.  Pinned here: what a transaction
that never reaches a shard costs there (nothing), that the shard's commit
log still learns its outcome (the committed floor never stalls), that
every shard reads the coordinator's one horizon — ids drawn on a shard or
at the router never collide, and a sharded restart restores it once —
that a shard's GC keeps what a snapshot that has not reached it yet still
needs, and the transaction's own state.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import TransactionStateError
from repro.shard import ShardConfig, ShardedDatabase
from repro.txn.status import CommitLog, TxnStatus

pytestmark = pytest.mark.shard


def make(shards: int, config: EngineConfig | None = None) -> ShardedDatabase:
    sdb = ShardedDatabase(config or EngineConfig(), ShardConfig(shards=shards))
    sdb.create_table("t", [("id", "int"), ("val", "str")], "sias")
    sdb.create_index("ix", "t", ["id"], kind="mvpbt")
    return sdb


def owned_by(sdb: ShardedDatabase, shard: int, count: int) -> list[int]:
    keys = (k for k in range(10_000) if sdb.partitioner.shard_of((k,)) == shard)
    return [next(keys) for _ in range(count)]


class TestExactCharge:
    def test_an_unreached_shard_pays_nothing(self) -> None:
        """A transaction that reads and writes on shard 0 only moves no
        other shard's clock and begins nothing there; after 200 of them
        with no abort, shard 3's committed floor is the coordinator's
        next txid."""
        sdb = make(4, EngineConfig(durability=True))
        keys = owned_by(sdb, 0, 200)
        others = sdb.shards[1:]
        clocks = [db.clock.now for db in others]
        begun = [db.txn.metrics()["txn.begin.count"] for db in others]
        for key in keys:
            txn = sdb.begin()
            assert sdb.select(txn, "ix", (key,)) == []
            sdb.insert(txn, "t", (key, "v"))
            txn.commit()
            assert list(txn.members) == [0]
        assert [db.clock.now for db in others] == clocks
        assert [db.txn.metrics()["txn.begin.count"]
                for db in others] == begun
        assert sdb.shards[0].txn.metrics()["txn.begin.count"] == 200
        assert (sdb.shards[3].txn.commit_log.committed_floor
                == sdb.coordinator.next_txid)

    def test_an_unjoined_shard_learns_an_abort(self) -> None:
        """The aborted id reaches every shard's aborted set — a manifest
        flip there must not infer it committed."""
        sdb = make(2, EngineConfig(durability=True))
        txn = sdb.begin()
        sdb.insert(txn, "t", (owned_by(sdb, 0, 1)[0], "v"))
        txn.abort()
        for db in sdb.shards:
            assert db.txn.status_of(txn.id) is TxnStatus.ABORTED
            assert txn.id in db.txn.commit_log.aborted_ids
        assert sdb.shards[1].txn.metrics()["txn.abort.count"] == 0

    def test_an_open_snapshot_is_active_on_every_shard(self) -> None:
        """Before it reaches a shard, a global transaction already holds
        that shard's horizon and is listed active by its manifest flip."""
        sdb = make(2, EngineConfig(durability=True))
        held = sdb.begin()
        txn = sdb.begin()
        sdb.insert(txn, "t", (owned_by(sdb, 1, 1)[0], "v"))
        txn.commit()
        manager = sdb.shards[1].txn
        assert held.members == {}
        assert [s.owner for s in manager.active_snapshots()] == [held.id]
        assert manager.cutoff_txid() == held.snapshot.xmin
        durability = sdb.shards[1].durability
        assert durability is not None
        state = durability.snapshot_state()
        assert state.active_txids == [held.id]
        assert state.txid_watermark == sdb.coordinator.next_txid
        held.commit()
        assert manager.active_snapshots() == []
        assert manager.cutoff_txid() == sdb.coordinator.next_txid


class TestOneCommitLog:
    """The coordinator owns the cluster's one commit log; every shard's
    manager reads it, and no shard allocates an id."""

    def test_every_shard_reads_the_coordinators_log(self) -> None:
        sdb = make(3, EngineConfig(durability=True))
        log = sdb.coordinator.commit_log
        assert all(db.txn.commit_log is log for db in sdb.shards)
        keys = owned_by(sdb, 0, 1) + owned_by(sdb, 2, 1)
        txn = sdb.begin()
        for key in keys:
            sdb.insert(txn, "t", (key, "v"))
        txn.commit()
        lost = sdb.begin()
        sdb.insert(lost, "t", (owned_by(sdb, 1, 1)[0], "x"))
        recovered = ShardedDatabase.recover(sdb)
        log = recovered.coordinator.commit_log
        assert log is not sdb.coordinator.commit_log
        assert all(db.txn.commit_log is log for db in recovered.shards)
        assert log.status(txn.id) is TxnStatus.COMMITTED
        assert log.status(lost.id) is TxnStatus.ABORTED
        assert log.committed_floor == lost.id
        reader = recovered.begin()
        assert sorted(recovered.range_select(reader, "ix", None, None)) \
            == sorted((key, "v") for key in keys)

    @pytest.mark.parametrize("committed", [True, False])
    def test_a_begun_id_is_in_progress_everywhere_until_decided(
            self, committed: bool) -> None:
        sdb = make(3)
        txn = sdb.begin()
        assert [db.txn.status_of(txn.id) for db in sdb.shards] \
            == [TxnStatus.IN_PROGRESS] * 3
        sdb.insert(txn, "t", (owned_by(sdb, 0, 1)[0], "v"))
        assert list(txn.members) == [0]
        assert [db.txn.status_of(txn.id) for db in sdb.shards] \
            == [TxnStatus.IN_PROGRESS] * 3
        if committed:
            txn.commit()
        else:
            txn.abort()
        decided = (TxnStatus.COMMITTED if committed
                   else TxnStatus.ABORTED)
        assert [db.txn.status_of(txn.id) for db in sdb.shards] \
            == [decided] * 3

    def test_a_shard_local_begin_never_collides_with_the_router(
            self) -> None:
        """A shard-local begin() draws the cluster's next id, so neither
        it nor a router begin() ever reissues the other's; its outcome
        reads the same on every shard, and the router's next transaction
        acts on that shard as usual."""
        sdb = make(2)
        before = sdb.begin()
        local = sdb.shards[0].begin()
        local_key, key = owned_by(sdb, 0, 2)
        sdb.shards[0].insert(local, "t", (local_key, "local"))
        assert [db.txn.status_of(local.id) for db in sdb.shards] \
            == [TxnStatus.IN_PROGRESS] * 2
        local.commit()
        assert [db.txn.status_of(local.id) for db in sdb.shards] \
            == [TxnStatus.COMMITTED] * 2
        txn = sdb.begin()
        assert len({before.id, local.id, txn.id}) == 3
        sdb.insert(txn, "t", (key, "v"))
        txn.commit()
        before.commit()
        assert sorted(sdb.range_select(sdb.begin(), "ix", None, None)) \
            == sorted([(local_key, "local"), (key, "v")])

    def test_a_sharded_recovery_restores_one_horizon(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        """A 4-shard restart restores the cluster's commit log once and
        hands that horizon to every shard; a single node restores its
        own once."""
        restored: list[CommitLog] = []
        restore = CommitLog.restore

        def spy(log: CommitLog, next_txid: int, committed: set[int]) -> None:
            restored.append(log)
            restore(log, next_txid, committed)

        monkeypatch.setattr(CommitLog, "restore", spy)
        sdb = make(4, EngineConfig(durability=True))
        txn = sdb.begin()
        for shard in range(4):
            sdb.insert(txn, "t", (owned_by(sdb, shard, 1)[0], "v"))
        txn.commit()
        recovered = ShardedDatabase.recover(sdb)
        horizon = recovered.coordinator.horizon
        assert restored == [horizon.commit_log]
        assert all(db.txn.horizon is horizon for db in recovered.shards)
        assert recovered.shards[2].txn.status_of(txn.id) \
            is TxnStatus.COMMITTED
        restored.clear()
        db = Database(EngineConfig(durability=True))
        db.begin().commit()
        assert Database.recover(db).txn.commit_log is restored[0]
        assert len(restored) == 1


class TestUnjoinedSnapshotGC:
    def test_gc_keeps_what_an_unjoined_snapshot_needs(self) -> None:
        """A snapshot opened before three rounds of updates, each evicted
        with GC on shard 1, and two merges there, first reaches shard 1
        after them: it reads what a single node's snapshot reads."""
        sdb = make(2)
        ref = Database(EngineConfig())
        ref.create_table("t", [("id", "int"), ("val", "str")], "sias")
        ref.create_index("ix", "t", ["id"], kind="mvpbt")
        keys = owned_by(sdb, 1, 30)
        for engine in (sdb, ref):
            txn = engine.begin()
            for key in keys:
                engine.insert(txn, "t", (key, "v0"))
            txn.commit()
        held, ref_held = sdb.begin(), ref.begin()
        tree = sdb.shards[1].catalog.index("ix").mvpbt
        ref_tree = ref.catalog.index("ix").mvpbt
        for rnd in range(1, 4):
            for engine in (sdb, ref):
                txn = engine.begin()
                for key in keys:
                    engine.update_by_key(txn, "ix", (key,),
                                         {"val": f"v{rnd}"})
                txn.commit()
            tree.evict_partition()
            ref_tree.evict_partition()
            if rnd > 1:
                tree.merge_partitions()
                ref_tree.merge_partitions()
        assert held.members == {}
        purged = tree.gc_stats.purged_eviction + \
            tree.gc_stats.purged_page_level
        assert purged > 0, "GC must have run on shard 1"
        for key in keys:
            assert sdb.select(held, "ix", (key,)) \
                == ref.select(ref_held, "ix", (key,)) == [(key, "v0")]
        assert sdb.range_select(held, "ix", None, None) \
            == ref.range_select(ref_held, "ix", None, None)
        held.commit()
        ref_held.commit()


class TestOwnState:
    def test_state_joins_and_repr(self) -> None:
        sdb = make(2)
        txn = sdb.begin()
        assert txn.is_active and txn.writes == 0 and txn.members == {}
        key = owned_by(sdb, 1, 1)[0]
        sdb.insert(txn, "t", (key, "v"))
        assert list(txn.members) == [1] and txn.writes == 1
        assert repr(txn) == (f"ShardTxn(id={txn.id}, active, joined=[1], "
                             f"touched=[1])")
        txn.commit()
        assert not txn.is_active
        assert repr(txn).startswith(f"ShardTxn(id={txn.id}, committed")
        with pytest.raises(TransactionStateError):
            txn.on(0)
        with pytest.raises(TransactionStateError):
            sdb.abort(txn)

    def test_a_read_only_transaction_reaching_nothing_costs_nothing(
            self) -> None:
        sdb = make(2)
        clocks = [db.clock.now for db in sdb.shards]
        txn = sdb.begin()
        txn.commit()
        assert [db.clock.now for db in sdb.shards] == clocks
        for db in sdb.shards:
            assert db.txn.status_of(txn.id) is TxnStatus.COMMITTED
