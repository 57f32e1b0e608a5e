"""Unit tests for the MVCC transaction manager, snapshots and commit log."""

import pytest

from repro.errors import TransactionStateError
from repro.sim.clock import SimClock
from repro.txn.manager import TransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.status import CommitLog, TxnStatus
from repro.txn.transaction import TxnState


@pytest.fixture
def mgr():
    return TransactionManager(SimClock())


class TestLifecycle:
    def test_ids_monotonic(self, mgr):
        t1, t2 = mgr.begin(), mgr.begin()
        assert t2.id == t1.id + 1

    def test_commit_updates_state_and_log(self, mgr):
        t = mgr.begin()
        t.commit()
        assert t.state is TxnState.COMMITTED
        assert mgr.commit_log.is_committed(t.id)

    def test_abort(self, mgr):
        t = mgr.begin()
        t.abort()
        assert t.state is TxnState.ABORTED
        assert mgr.commit_log.is_aborted(t.id)

    def test_double_commit_rejected(self, mgr):
        t = mgr.begin()
        t.commit()
        with pytest.raises(TransactionStateError):
            t.commit()

    def test_require_active_raises_after_commit(self, mgr):
        t = mgr.begin()
        t.commit()
        with pytest.raises(TransactionStateError):
            t.require_active()

    def test_context_manager_commits(self, mgr):
        with mgr.begin() as t:
            pass
        assert t.state is TxnState.COMMITTED

    def test_context_manager_aborts_on_error(self, mgr):
        with pytest.raises(ValueError):
            with mgr.begin() as t:
                raise ValueError("boom")
        assert t.state is TxnState.ABORTED

    def test_run_helper(self, mgr):
        result = mgr.run(lambda txn: txn.id)
        assert result == 1
        assert mgr.committed_count == 1

    def test_begin_charges_overhead(self, mgr):
        before = mgr.clock.now
        mgr.begin()
        assert mgr.clock.now > before


class TestSnapshots:
    def test_snapshot_sees_committed_earlier(self, mgr):
        t1 = mgr.begin()
        t1.commit()
        t2 = mgr.begin()
        assert t2.snapshot.sees_ts(t1.id, mgr.commit_log)

    def test_snapshot_never_sees_concurrent(self, mgr):
        t1 = mgr.begin()
        t2 = mgr.begin()
        t1.commit()     # commits AFTER t2's snapshot
        assert not t2.snapshot.sees_ts(t1.id, mgr.commit_log)

    def test_snapshot_never_sees_later(self, mgr):
        t1 = mgr.begin()
        t2 = mgr.begin()
        t2.commit()
        assert not t1.snapshot.sees_ts(t2.id, mgr.commit_log)

    def test_snapshot_never_sees_aborted(self, mgr):
        t1 = mgr.begin()
        t1.abort()
        t2 = mgr.begin()
        assert not t2.snapshot.sees_ts(t1.id, mgr.commit_log)

    def test_own_writes_visible(self, mgr):
        t = mgr.begin()
        assert t.snapshot.sees_ts(t.id, mgr.commit_log)

    def test_xmin_tracks_oldest_active(self, mgr):
        t1 = mgr.begin()
        t2 = mgr.begin()
        assert t2.snapshot.xmin == t1.id
        t3 = mgr.begin()
        assert t3.snapshot.xmin == t1.id


class TestCutoff:
    def test_cutoff_without_active_is_next_txid(self, mgr):
        t = mgr.begin()
        t.commit()
        assert mgr.cutoff_txid() == mgr.next_txid

    def test_cutoff_pinned_by_long_running_txn(self, mgr):
        old = mgr.begin()
        for _ in range(5):
            mgr.begin().commit()
        assert mgr.cutoff_txid() == old.id
        old.commit()
        assert mgr.cutoff_txid() == mgr.next_txid

    def test_cutoff_follows_snapshot_xmin_not_own_id(self, mgr):
        t1 = mgr.begin()
        t2 = mgr.begin()   # xmin = t1.id
        t1.commit()
        # t2 still active, with a snapshot anchored at t1
        assert mgr.cutoff_txid() == t1.id
        t2.commit()


class TestCommitLog:
    def test_unknown_id_in_progress(self):
        log = CommitLog()
        assert log.status(99) is TxnStatus.IN_PROGRESS
        assert not log.is_committed(99)
        assert not log.is_aborted(99)

    def test_transitions(self):
        log = CommitLog()
        log.register(1)
        assert log.status(1) is TxnStatus.IN_PROGRESS
        log.set_committed(1)
        assert log.is_committed(1)
        log.register(2)
        log.set_aborted(2)
        assert log.is_aborted(2)


class TestSnapshotUnit:
    def test_direct_snapshot_semantics(self):
        log = CommitLog()
        log.register(5)
        log.set_committed(5)
        snap = Snapshot(owner=10, xmax=8, active=frozenset({6}), xmin=5)
        assert snap.sees_ts(5, log)
        assert not snap.sees_ts(6, log)   # was active
        assert not snap.sees_ts(8, log)   # >= xmax
        assert snap.sees_ts(10, log)      # own
