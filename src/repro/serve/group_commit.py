"""WAL group commit: leader/follower batched commit (DESIGN.md §15.3).

Without grouping, every commit serializes on its own WAL append — one
simulated fsync per transaction, and commit throughput is pinned to the
log regardless of how many sessions are committing.  Group commit batches
the commit records of concurrently-committing sessions into **one** WAL
append:

1. a committing session drains its pending index records inside an engine
   slot (tree state is slot-confined), then enqueues a *pending commit*
   on the group queue — releasing the engine slot first.  A transaction
   that wrote nothing never gets here: it has nothing to make durable, so
   its session flips it inside that same slot and a group only ever
   covers transactions that owe the log something;
2. the first enqueuer becomes the **leader**; later arrivals are
   **followers** and simply wait on their pending's event;
3. the leader requests the engine slot; while it waits in the
   scheduler's FIFO, more committers drain and enqueue — natural
   batching under contention;
4. holding the slot, the leader drains the whole queue, appends every
   transaction's records plus COMMIT markers in one
   :meth:`~repro.durability.controller.DurabilityController.append_group`
   call (one fsync), then flips commit status for the whole group via
   :meth:`~repro.txn.manager.TransactionManager.finish_commit`;
5. the leader wakes its group; if the queue refilled meanwhile it
   promotes the head pending to leader and hands off.

Crash semantics are unchanged from single commits: the flip (and hence
the client acknowledgement) happens only after the group append returned,
and within the append each transaction's records precede its marker with
contiguous LSNs — so a torn group write persists a per-transaction
*prefix* of the group, and recovery commits exactly the transactions
whose markers became durable (no half-transaction, no gap; pinned by
``tests/crash/test_group_commit_crash.py``).

Lock order (§15.2): enqueue takes GROUP_QUEUE (40) holding nothing; the
leader takes ENGINE (10) holding nothing, then GROUP_QUEUE inside the
slot to drain — always ascending.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..core.records import MVPBTRecord
from ..errors import ConcurrencyError
from .locks import RANK_GROUP_QUEUE, OrderedLock
from .scheduler import FairScheduler

if TYPE_CHECKING:
    from ..durability.controller import DurabilityController
    from ..obs.core import Observability
    from ..txn.manager import TransactionManager
    from ..txn.transaction import Transaction


class GroupCommitStats:
    """Plain counters (always on — benchmarks read them without obs)."""

    __slots__ = ("groups", "commits", "max_group_size")

    def __init__(self) -> None:
        self.groups = 0
        self.commits = 0
        self.max_group_size = 0

    @property
    def fsyncs_saved(self) -> int:
        """One append per group instead of one per commit."""
        return self.commits - self.groups

    @property
    def mean_group_size(self) -> float:
        return self.commits / self.groups if self.groups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"groups": self.groups, "commits": self.commits,
                "max_group_size": self.max_group_size,
                "fsyncs_saved": self.fsyncs_saved,
                "mean_group_size": self.mean_group_size}


class _Pending:
    """One session's commit waiting for its group to become durable."""

    __slots__ = ("txn", "records", "event", "error", "done")

    def __init__(self, txn: "Transaction",
                 records: list[tuple[str, MVPBTRecord]]) -> None:
        self.txn = txn
        self.records = records
        self.event = threading.Event()
        self.error: BaseException | None = None
        self.done = False


class GroupCommitter:
    """Leader/follower group commit over one durability controller."""

    def __init__(self, controller: "DurabilityController",
                 manager: "TransactionManager",
                 scheduler: FairScheduler,
                 obs: "Observability | None" = None) -> None:
        self._controller = controller
        self._manager = manager
        self._scheduler = scheduler
        self._queue_lock = OrderedLock("serve.group_queue",
                                       RANK_GROUP_QUEUE)
        self._queue: list[_Pending] = []
        self._leader_active = False
        self._closed = False
        self.stats = GroupCommitStats()
        self._obs = obs
        if obs is not None:
            registry = obs.registry
            size_bounds = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
            self._m_groups = registry.counter("serve.commit.groups")
            self._m_group_size = registry.histogram(
                "serve.commit.group_size", size_bounds)
            self._m_fsyncs_saved = registry.counter(
                "serve.commit.fsyncs_saved")

    # ---------------------------------------------------------------- commit

    def commit(self, txn: "Transaction",
               records: list[tuple[str, MVPBTRecord]]) -> None:
        """Make one drained transaction durable as part of a group.

        Blocks until the transaction's group has been appended and its
        status flipped (the durability acknowledgement), then returns.
        Raises whatever the group append raised — the transaction is then
        still ACTIVE and the caller decides (abort / retry), exactly like
        a failed single-caller commit hook.
        """
        pending = _Pending(txn, records)
        lead = False
        with self._queue_lock:
            if self._closed:
                raise ConcurrencyError("group committer is closed")
            self._queue.append(pending)
            if not self._leader_active:
                self._leader_active = True
                lead = True
        while True:
            if lead:
                self._lead()
            pending.event.wait()
            if pending.done:
                if pending.error is not None:
                    raise pending.error
                return
            # promoted: the previous leader handed this thread the baton
            pending.event.clear()
            lead = True

    # ---------------------------------------------------------------- leader

    def _lead(self) -> None:
        with self._scheduler.slot("commit"):
            # drain INSIDE the slot: every committer that drained its
            # records before this grant is already queued and joins the
            # group (10 -> 40 ascends, see module docstring)
            with self._queue_lock:
                group = list(self._queue)
                self._queue.clear()
            error: BaseException | None = None
            try:
                self._controller.append_group(
                    [(p.txn, p.records) for p in group])
                for p in group:
                    self._manager.finish_commit(p.txn)
            except BaseException as exc:
                error = exc
            self._note_group(len(group))

        for p in group:
            p.error = error
            p.done = True
            p.event.set()

        with self._queue_lock:
            if self._queue:
                self._queue[0].event.set()
            else:
                self._leader_active = False

    def _note_group(self, size: int) -> None:
        stats = self.stats
        stats.groups += 1
        stats.commits += size
        if size > stats.max_group_size:
            stats.max_group_size = size
        if self._obs is not None:
            self._m_groups.inc()
            self._m_group_size.observe(size)
            self._m_fsyncs_saved.inc(size - 1)

    # ----------------------------------------------------------------- close

    def close(self) -> None:
        """Refuse new commits; in-flight groups drain normally."""
        with self._queue_lock:
            self._closed = True

    def __repr__(self) -> str:
        return (f"GroupCommitter(groups={self.stats.groups}, "
                f"commits={self.stats.commits}, "
                f"mean={self.stats.mean_group_size:.2f})")
