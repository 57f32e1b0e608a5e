"""Tests for the serve layer's lock-ordering discipline and scheduler.

The ordering checker is the runtime teeth behind DESIGN.md §15.2: these
tests pin that ascending acquisition is accepted, that every descending
or equal-rank acquisition raises, and that release bookkeeping is LIFO —
plus the FairScheduler's single-thread contract (grant/release, tick
accounting, close semantics)."""

import threading

import pytest

from repro.errors import ConcurrencyError
from repro.serve.locks import (RANK_ENGINE, RANK_GROUP_QUEUE,
                               RANK_TXN_COMMITLOG, RANK_TXN_MANAGER,
                               OrderedLock, held_ranks, note_acquired,
                               note_released)
from repro.serve.scheduler import FairScheduler


class TestRankBookkeeping:
    def test_ascending_acquisition_is_legal(self):
        note_acquired(RANK_ENGINE, "engine")
        note_acquired(RANK_TXN_MANAGER, "manager")
        note_acquired(RANK_TXN_COMMITLOG, "commitlog")
        note_acquired(RANK_GROUP_QUEUE, "queue")
        assert [rank for rank, _ in held_ranks()] == [10, 20, 30, 40]
        note_released(RANK_GROUP_QUEUE, "queue")
        note_released(RANK_TXN_COMMITLOG, "commitlog")
        note_released(RANK_TXN_MANAGER, "manager")
        note_released(RANK_ENGINE, "engine")
        assert held_ranks() == []

    def test_descending_acquisition_raises(self):
        note_acquired(RANK_GROUP_QUEUE, "queue")
        try:
            with pytest.raises(ConcurrencyError, match="ascending rank"):
                note_acquired(RANK_ENGINE, "engine")
        finally:
            note_released(RANK_GROUP_QUEUE, "queue")

    def test_equal_rank_acquisition_raises(self):
        note_acquired(RANK_TXN_MANAGER, "manager-a")
        try:
            with pytest.raises(ConcurrencyError):
                note_acquired(RANK_TXN_MANAGER, "manager-b")
        finally:
            note_released(RANK_TXN_MANAGER, "manager-a")

    def test_non_lifo_release_raises(self):
        note_acquired(RANK_ENGINE, "engine")
        note_acquired(RANK_GROUP_QUEUE, "queue")
        try:
            with pytest.raises(ConcurrencyError, match="out of order"):
                note_released(RANK_ENGINE, "engine")
        finally:
            note_released(RANK_GROUP_QUEUE, "queue")
            note_released(RANK_ENGINE, "engine")

    def test_stacks_are_per_thread(self):
        note_acquired(RANK_GROUP_QUEUE, "queue")
        seen: list[list] = []

        def other():
            seen.append(held_ranks())
            # this thread holds nothing: low-rank acquisition is fine
            note_acquired(RANK_ENGINE, "engine")
            note_released(RANK_ENGINE, "engine")

        try:
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        finally:
            note_released(RANK_GROUP_QUEUE, "queue")
        assert seen == [[]]


class TestViolationDiagnostics:
    """The enriched ConcurrencyError payload: thread name, full held
    stack, and the sorted set of ranks involved (§15.2 satellite)."""

    def test_violation_names_the_thread(self):
        note_acquired(RANK_GROUP_QUEUE, "queue")
        try:
            with pytest.raises(ConcurrencyError) as excinfo:
                note_acquired(RANK_ENGINE, "engine")
        finally:
            note_released(RANK_GROUP_QUEUE, "queue")
        message = str(excinfo.value)
        assert repr(threading.current_thread().name) in message

    def test_violation_lists_the_full_held_stack(self):
        note_acquired(RANK_TXN_MANAGER, "manager")
        note_acquired(RANK_TXN_COMMITLOG, "commitlog")
        note_acquired(RANK_GROUP_QUEUE, "queue")
        try:
            with pytest.raises(ConcurrencyError) as excinfo:
                note_acquired(RANK_ENGINE, "engine")
        finally:
            note_released(RANK_GROUP_QUEUE, "queue")
            note_released(RANK_TXN_COMMITLOG, "commitlog")
            note_released(RANK_TXN_MANAGER, "manager")
        message = str(excinfo.value)
        assert "manager(rank 20), commitlog(rank 30), queue(rank 40)" \
            in message
        assert "ranks involved: [10, 20, 30, 40]" in message

    def test_release_mismatch_reports_stack_and_ranks(self):
        note_acquired(RANK_TXN_MANAGER, "manager")
        try:
            with pytest.raises(ConcurrencyError) as excinfo:
                note_released(RANK_TXN_MANAGER, "impostor")
        finally:
            note_released(RANK_TXN_MANAGER, "manager")
        message = str(excinfo.value)
        assert "releasing impostor(rank 20)" in message
        assert "manager(rank 20)" in message
        assert "releases must be LIFO" in message

    def test_release_on_empty_stack_raises(self):
        with pytest.raises(ConcurrencyError, match="lock release"):
            note_released(RANK_ENGINE, "phantom")

    def test_worker_thread_name_appears_in_violation(self):
        captured: list[str] = []

        def collide() -> None:
            note_acquired(RANK_GROUP_QUEUE, "queue")
            try:
                note_acquired(RANK_ENGINE, "engine")
            except ConcurrencyError as exc:
                captured.append(str(exc))
            finally:
                note_released(RANK_GROUP_QUEUE, "queue")

        thread = threading.Thread(target=collide, name="collider")
        thread.start()
        thread.join()
        assert len(captured) == 1
        assert "'collider'" in captured[0]


class TestOrderedLock:
    def test_context_manager_tracks_rank(self):
        lock = OrderedLock("t.queue", RANK_GROUP_QUEUE)
        with lock:
            assert held_ranks() == [(RANK_GROUP_QUEUE, "t.queue")]
        assert held_ranks() == []

    def test_inversion_through_ordered_locks_raises(self):
        outer = OrderedLock("t.outer", RANK_TXN_COMMITLOG)
        inner = OrderedLock("t.inner", RANK_TXN_MANAGER)
        with outer:
            with pytest.raises(ConcurrencyError):
                inner.acquire()
        # the failed acquisition must not leak bookkeeping
        assert held_ranks() == []

    def test_reentrant_reacquisition_raises(self):
        # OrderedLock is non-re-entrant by design: same rank never ascends
        lock = OrderedLock("t.q", RANK_GROUP_QUEUE)
        with lock:
            with pytest.raises(ConcurrencyError) as excinfo:
                lock.acquire()
        assert held_ranks() == []
        assert "t.q(rank 40)" in str(excinfo.value)

    def test_failed_mutex_acquire_unwinds_bookkeeping(self):
        # if the raw mutex acquisition blows up after the rank was noted,
        # the note must be rolled back or the stack poisons the thread
        class ExplodingMutex:
            def acquire(self) -> None:
                raise RuntimeError("simulated interpreter shutdown")

            def release(self) -> None:  # pragma: no cover - never reached
                raise AssertionError("release without acquire")

        lock = OrderedLock("t.q", RANK_GROUP_QUEUE)
        lock._lock = ExplodingMutex()
        with pytest.raises(RuntimeError, match="simulated"):
            lock.acquire()
        assert held_ranks() == []
        # the thread is not poisoned: a fresh ordered lock still works
        with OrderedLock("t.q2", RANK_GROUP_QUEUE):
            assert [name for _, name in held_ranks()] == ["t.q2"]


class TestFairScheduler:
    def test_slot_roundtrip_counts_ticks(self):
        sched = FairScheduler()
        with sched.slot("oltp"):
            assert sched.queue_depth == 0
        with sched.slot("scan"):
            pass
        assert sched.ticks == 2
        stats = sched.stats()
        assert stats["oltp"]["grants"] == 1
        assert stats["scan"]["grants"] == 1
        assert stats["scan"]["max_wait_ticks"] == 0

    def test_release_without_holder_raises(self):
        sched = FairScheduler()
        with pytest.raises(ConcurrencyError):
            sched.release()

    def test_closed_scheduler_refuses_acquisition(self):
        sched = FairScheduler()
        sched.close()
        with pytest.raises(ConcurrencyError, match="closed"):
            sched.acquire("oltp")

    def test_slot_participates_in_rank_order(self):
        sched = FairScheduler()
        with sched.slot("oltp"):
            assert held_ranks() == [(RANK_ENGINE, "serve.engine")]
            # ascending into the group queue is legal inside the slot
            with OrderedLock("t.q", RANK_GROUP_QUEUE):
                pass
        assert held_ranks() == []

    def test_requesting_slot_while_holding_a_lock_raises(self):
        sched = FairScheduler()
        with OrderedLock("t.q", RANK_GROUP_QUEUE):
            with pytest.raises(ConcurrencyError):
                sched.acquire("commit")
        assert held_ranks() == []

    def test_fifo_grant_order(self):
        """Waiters are granted in exact arrival order (the ticket queue)."""
        sched = FairScheduler()
        order: list[int] = []
        arrived = [threading.Event() for _ in range(3)]

        def waiter(i: int) -> None:
            # announce arrival only once the ticket is actually queued:
            # acquire() enqueues before blocking, so depth is the signal
            with sched.slot("oltp"):
                order.append(i)

        sched.acquire("main")  # hold the slot so all waiters queue up
        threads = []
        for i in range(3):
            t = threading.Thread(target=waiter, args=(i,))
            t.start()
            threads.append(t)
            # wait until this waiter is enqueued before starting the next,
            # making the arrival order deterministic
            while sched.queue_depth < i + 1:
                arrived[i].wait(0.001)
        sched.release()
        for t in threads:
            t.join()
        assert order == [0, 1, 2]
