"""Tests for the visibility fast path: the CommitLog status array and the
per-operation ts -> visible memo of the VisibilityChecker.

The crucial correctness property: a transaction that commits *after* a
snapshot is taken must stay invisible to that snapshot even when its
commit is published mid-operation (the memo may cache decisions precisely
because, relative to a fixed snapshot, no answer can ever flip).
"""


from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.core.records import MVPBTRecord, RecordType, ReferenceMode
from repro.core.tree import MVPBT
from repro.core.visibility import Visibility, VisibilityChecker
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.status import CommitLog, TxnStatus


class TestWatermark:
    def test_statuses_below_watermark_are_array_resolved(self):
        log = CommitLog()
        for txid in range(1, 6):
            log.register(txid)
            (log.set_committed if txid % 2 else log.set_aborted)(txid)
        assert log.is_committed(1) and log.is_aborted(2)
        assert log.status(4) is TxnStatus.ABORTED
        assert log.status(99) is TxnStatus.IN_PROGRESS


class TestSnapshotFastPath:
    def test_below_xmin_resolves_by_commit_bit(self):
        log = CommitLog()
        log.register(3)
        log.set_committed(3)
        log.register(4)
        log.set_aborted(4)
        snap = Snapshot(owner=10, xmax=10, active=frozenset(), xmin=10)
        assert snap.sees_ts(3, log)
        assert not snap.sees_ts(4, log)


def _record(ts, seq=None, key=(7,), vid=1):
    return MVPBTRecord(key, ts, seq if seq is not None else ts,
                       RecordType.REGULAR, vid, rid_new=RecordID(0, ts))


class TestLateCommitStaysInvisible:
    def test_commit_mid_operation_does_not_flip_decision(self):
        """The paper's snapshot-isolation guarantee under the new cache: a
        checker observes a concurrent writer's record, the writer commits,
        and a later record of the same writer is checked by the *same*
        operation — both must be invisible."""
        mgr = TransactionManager()
        writer = mgr.begin()
        reader = mgr.begin()               # writer is active in this snapshot
        checker = VisibilityChecker(reader.snapshot, mgr.commit_log,
                                    ReferenceMode.PHYSICAL)
        assert checker.check(_record(writer.id, seq=1)) \
            is Visibility.INVISIBLE
        writer.commit()                    # published mid-operation
        assert checker.check(_record(writer.id, seq=2)) \
            is Visibility.INVISIBLE
        # a *new* snapshot (fresh operation) sees the committed record
        fresh = mgr.begin()
        fresh_checker = VisibilityChecker(fresh.snapshot, mgr.commit_log,
                                          ReferenceMode.PHYSICAL)
        assert fresh_checker.check(_record(writer.id, seq=3)) \
            is Visibility.VISIBLE

    def test_tree_level_late_commit(self):
        clock = SimClock()
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        mgr = TransactionManager(clock)
        ix = MVPBT("ix", PageFile("ix", device, 8192, 8), BufferPool(64),
                   PartitionBuffer(1 << 22), mgr)
        writer = mgr.begin()
        ix.insert(writer, (1,), RecordID(0, 1), vid=1)
        reader = mgr.begin()
        writer.commit()
        # committed after the reader's snapshot: must stay invisible
        assert ix.search(reader, (1,)) == []
        assert ix.range_scan(reader, None, None) == []
        fresh = mgr.begin()
        assert [h.key for h in ix.search(fresh, (1,))] == [(1,)]

    def test_memo_resolves_each_timestamp_once(self, monkeypatch):
        mgr = TransactionManager()
        t = mgr.begin()
        t.commit()
        reader = mgr.begin()
        calls = []
        real = Snapshot.sees_ts
        monkeypatch.setattr(Snapshot, "sees_ts",
                            lambda self, ts, log: (calls.append(ts),
                                                   real(self, ts, log))[1])
        checker = VisibilityChecker(reader.snapshot, mgr.commit_log,
                                    ReferenceMode.PHYSICAL)
        for seq in range(50):
            checker.check(_record(t.id, seq=seq, key=(seq,), vid=seq + 1))
        assert calls == [t.id]             # one resolution for 50 records
        assert checker.records_processed == 50


class TestAbortedStaysInvisible:
    def test_aborted_below_watermark(self):
        mgr = TransactionManager()
        writer = mgr.begin()
        writer.abort()
        reader = mgr.begin()
        checker = VisibilityChecker(reader.snapshot, mgr.commit_log,
                                    ReferenceMode.PHYSICAL)
        assert checker.check(_record(writer.id)) is Visibility.INVISIBLE
