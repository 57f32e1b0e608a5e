"""Multi-threaded stress tests for the serving layer (CI concurrency lane).

These tests run real OS threads and tolerate arbitrary interleavings: the
assertions are invariants (oracle equivalence, exact counter totals,
unique txid allocation, bounded queue states), never specific schedules.
They pin the two thread-safety fixes behind the serve layer — the commit
log's locked mutations under lock-free reads, and the transaction
manager's synchronized allocator/active-set — plus end-to-end serving
correctness under contention.
"""

import threading

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.serve import ServeConfig, SessionExecutor
from repro.sim.clock import SimClock
from repro.txn.manager import TransactionManager
from repro.txn.status import CommitLog, TxnStatus

pytestmark = pytest.mark.concurrency

THREADS = 8
TXNS_PER_THREAD = 200


class TestCommitLogStress:
    """Locked mutations + lock-free reads on the shared commit log."""

    def test_concurrent_register_and_decide(self):
        log = CommitLog()
        ids_per_thread: list[list[int]] = [[] for _ in range(THREADS)]
        next_id = [1]
        alloc = threading.Lock()
        errors: list[BaseException] = []

        def writer(slot: int) -> None:
            try:
                for i in range(TXNS_PER_THREAD):
                    with alloc:
                        txid = next_id[0]
                        next_id[0] += 1
                    log.register(txid)
                    if i % 3 == 2:
                        log.set_aborted(txid)
                    else:
                        log.set_committed(txid)
                    ids_per_thread[slot].append(txid)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader() -> None:
            try:
                for _ in range(TXNS_PER_THREAD * 2):
                    probe = max(1, next_id[0] - 1)
                    status = log.status(probe)
                    assert status in (TxnStatus.IN_PROGRESS,
                                      TxnStatus.COMMITTED,
                                      TxnStatus.ABORTED)
                    log.aborted_ids  # exercise the locked snapshot
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(i,))
                    for i in range(THREADS)]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = THREADS * TXNS_PER_THREAD
        committed = sum(1 for ids in ids_per_thread
                        for i, _txid in enumerate(ids) if i % 3 != 2)
        got_committed = sum(
            1 for txid in range(1, total + 1)
            if log.status(txid) is TxnStatus.COMMITTED)
        assert got_committed == committed


class TestTransactionManagerStress:
    """The synchronized allocator: unique ids, exact lifecycle counts."""

    def test_concurrent_begin_commit_abort(self):
        manager = TransactionManager(SimClock())
        ids: list[set[int]] = [set() for _ in range(THREADS)]
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                for i in range(TXNS_PER_THREAD):
                    txn = manager.begin()
                    assert txn.id not in ids[slot]
                    ids[slot].add(txn.id)
                    if i % 4 == 3:
                        manager.abort(txn)
                    else:
                        manager.commit(txn)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        all_ids: set[int] = set()
        for s in ids:
            assert not (all_ids & s), "txid handed to two threads"
            all_ids |= s
        total = THREADS * TXNS_PER_THREAD
        assert len(all_ids) == total
        assert manager.next_txid == total + 1
        assert manager.committed_count + manager.aborted_count == total
        assert manager.aborted_count == THREADS * (TXNS_PER_THREAD // 4)
        assert manager.active_transactions == []
        assert manager.cutoff_txid() == total + 1


class TestServedOracleStress:
    """N concurrent sessions over disjoint key ranges: the final state
    must equal the per-session oracles exactly, and every group-commit
    acknowledgement must be durable.  A durable engine commits through
    the group committer, a non-durable one through the direct path."""

    @pytest.mark.parametrize("durable", [True, False])
    def test_concurrent_sessions_match_oracle(self, durable):
        db = Database(EngineConfig(durability=durable))
        db.create_table("t", [("k", "int"), ("v", "str")])
        db.create_index("ix", "t", ["k"], kind="mvpbt",
                        index_only_visibility=True)
        sessions = 8
        config = ServeConfig(max_sessions=sessions)
        oracles: dict[int, dict[int, str]] = {}
        oracle_lock = threading.Lock()

        def client_for(slot: int):
            base = slot * 1000

            def client(session):
                oracle: dict[int, str] = {}
                for i in range(30):
                    key = base + i
                    session.begin()
                    session.insert("t", (key, f"v{key}"))
                    session.commit()
                    oracle[key] = f"v{key}"
                    if i % 5 == 4:
                        session.begin()
                        session.update_by_key("ix", (key,),
                                              {"v": f"u{key}"})
                        session.commit()
                        oracle[key] = f"u{key}"
                    if i % 7 == 6:
                        session.begin()
                        session.delete_by_key("ix", (key,))
                        session.commit()
                        del oracle[key]
                with oracle_lock:
                    oracles[slot] = oracle
                return session.commits
            return client

        server = db.serve(config)
        commits = SessionExecutor(server, workers=sessions).run(
            [client_for(i) for i in range(sessions)])
        assert len(commits) == sessions

        want = sorted((k, v) for oracle in oracles.values()
                      for k, v in oracle.items())
        with server.session() as reader:
            reader.begin()
            got = sorted(reader.range_select("ix", None, None))
            reader.abort()
        assert got == want
        if not durable:
            assert server.committer is None
            assert db.txn.committed_count == sum(commits)
            server.close()
            return
        stats = server.committer.stats
        assert stats.commits == db.txn.committed_count
        assert db.durability.wal.appends == stats.groups
        server.close()

        # every acknowledged commit survives recovery (clean restart)
        recovered = Database.recover(db)
        txn = recovered.begin()
        assert sorted(recovered.range_select(txn, "ix", None, None)) == want
        txn.abort()


class TestGroupFormation:
    """Under 16 contending committers, groups actually form — the fsync
    saving the whole layer exists for."""

    def test_groups_form_under_contention(self):
        db = Database(EngineConfig(durability=True))
        db.create_table("t", [("k", "int"), ("v", "str")])
        db.create_index("ix", "t", ["k"], kind="mvpbt",
                        index_only_visibility=True)
        server = db.serve(ServeConfig(max_sessions=16))

        def client_for(slot: int):
            def client(session):
                for i in range(20):
                    session.begin()
                    session.insert("t", (slot * 100 + i, "x"))
                    session.commit()
            return client

        SessionExecutor(server, workers=16).run(
            [client_for(i) for i in range(16)])
        stats = server.committer.stats
        assert stats.commits == 320
        # the invariant half: accounting is exact regardless of schedule
        assert db.durability.wal.appends == stats.groups
        # the contention half: at least SOME batching happened.  16
        # threads x 20 commits contending for the engine slot make a
        # zero-batch run virtually impossible; a scheduler pathology that defeats
        # grouping entirely SHOULD fail this lane loudly.
        assert stats.max_group_size >= 2
        assert stats.groups < stats.commits
        server.close()

    def test_reading_sessions_stay_out_of_the_group(self):
        """Seven sessions commit at once behind a barrier; only one of
        them wrote.  Whatever the schedule, the log sees one append
        covering one transaction."""
        db = Database(EngineConfig(durability=True))
        db.create_table("t", [("k", "int"), ("v", "str")])
        db.create_index("ix", "t", ["k"], kind="mvpbt",
                        index_only_visibility=True)
        server = db.serve(ServeConfig(max_sessions=8))
        barrier = threading.Barrier(7, timeout=30)

        def client_for(slot: int):
            def client(session):
                session.begin()
                session.select("ix", (slot,))
                if slot == 0:
                    session.insert("t", (1, "x"))
                barrier.wait()
                session.commit()
            return client

        SessionExecutor(server, workers=7).run(
            [client_for(i) for i in range(7)])
        stats = server.committer.stats
        assert (stats.groups, stats.commits) == (1, 1)
        assert db.durability.wal.appends == 1
        assert db.txn.committed_count == 7
        server.close()
