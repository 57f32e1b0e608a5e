"""Transaction manager: begin / commit / abort, cutoff tracking.

Implements snapshot isolation.  The *cutoff* transaction id (paper §4.6 —
"lowest active transaction timestamp") drives garbage collection: any version
superseded before the cutoff is invisible to every active and future
transaction and may be purged.

Thread safety (DESIGN.md §15.2): the manager is one of the explicitly
synchronized transaction components behind the serve layer.  One
re-entrant mutex (rank TXN_MANAGER in the serve lock order, acquired
before the commit log's internal mutex and after the engine slot) guards
its member set and counters and every call it makes into its horizon.
Commit is split in two phases so WAL group commit can interpose between
them:

* the **hook phase** (:meth:`commit`) runs the registered durability hooks
  while the transaction is still ACTIVE — single-caller path, one WAL
  append per commit that wrote something (the durability hook does no
  I/O for one that did not, DESIGN.md §11.3);
* the **flip phase** (:meth:`finish_commit`) publishes COMMITTED in the
  commit log and removes the transaction from the active set.  The serve
  layer's group-commit leader calls it directly for every transaction of a
  group *after* the one batched WAL append made the whole group durable.

A transaction is only ever driven by one session thread; the mutex
serializes *different* transactions' lifecycle transitions against each
other and against snapshot capture in :meth:`begin`.

Ids, snapshots and outcomes are decided in one place, the
:class:`Horizon`: it allocates each txid, captures its snapshot, keeps the
active set and owns the :class:`~repro.txn.status.CommitLog`.  A single
node's manager holds its own; a router's coordinator holds the cluster's
and gives it to every shard's manager (DESIGN.md §16.2), so a shard-local
:meth:`~TransactionManager.begin` draws the cluster's next id and a
member's finish decides the id for every shard.  The manager keeps only
what is its own: its member transactions, its hooks, its counters and the
``txn_overhead`` charge.
"""

from __future__ import annotations

import threading

from typing import TYPE_CHECKING

from ..errors import TransactionStateError
from ..sim.clock import SimClock
from ..types import TxnHook
from .snapshot import Snapshot
from .status import CommitLog, TxnStatus
from .transaction import Transaction, TxnState

if TYPE_CHECKING:
    from ..obs.core import Observability
    from ..obs.registry import Metrics


class Horizon:
    """The one authority over transaction ids: it issues each id with
    its snapshot, keeps the active set (txid -> snapshot, in begin order)
    and records every outcome in its :class:`CommitLog`.  It charges no
    clock.  Its callers serialize it: a single node's manager under its
    lock, a router's coordinator and shard managers under the serve slot
    (DESIGN.md §15.2)."""

    def __init__(self) -> None:
        self._next_txid = 1
        self.active: dict[int, Snapshot] = {}
        self.commit_log = CommitLog()

    def begin(self) -> tuple[int, Snapshot]:
        """Allocate the next txid and capture its snapshot."""
        txid = self._next_txid
        self._next_txid = txid + 1
        active = frozenset(self.active)
        snapshot = Snapshot(owner=txid, xmax=txid, active=active,
                            xmin=min(active) if active else txid)
        self.active[txid] = snapshot
        self.commit_log.register(txid)
        return txid, snapshot

    def finish(self, txid: int, committed: bool) -> None:
        """Record ``txid``'s outcome, then drop it from the active set —
        a snapshot taken in between still lists it active.  A second
        finish of the same id finds it already decided."""
        log = self.commit_log
        if log.status(txid) is not TxnStatus.IN_PROGRESS:
            return
        if committed:
            log.set_committed(txid)
        else:
            log.set_aborted(txid)
        self.active.pop(txid, None)

    def restore(self, next_txid: int, committed: set[int]) -> None:
        """Recovery entry point: adopt the durable transaction history.

        ``next_txid`` must exceed every txid whose effects may exist
        anywhere durable; ``committed`` lists the durably-committed ids.
        All other below-``next_txid`` ids become aborted.
        """
        if self.active:
            raise TransactionStateError(
                f"cannot restore with {len(self.active)} active "
                f"transactions")
        self._next_txid = max(next_txid, 1)
        self.commit_log.restore(self.next_txid, committed)

    @property
    def next_txid(self) -> int:
        """The next id this horizon issues (a manifest flip's
        watermark)."""
        return self._next_txid


class TransactionManager:
    """Opens, commits and aborts the transactions of one node or shard
    under the ids and snapshots its horizon issues."""

    def __init__(self, clock: SimClock | None = None,
                 obs: "Observability | None" = None, *,
                 horizon: Horizon | None = None) -> None:
        self.clock = clock or SimClock()
        #: issues ids and snapshots and records outcomes: this node's own,
        #: or on a shard the cluster's, shared with every shard
        self.horizon = horizon or Horizon()
        #: the horizon's log, read on the visibility hot path
        self.commit_log = self.horizon.commit_log
        #: rank TXN_MANAGER (§15.2), re-entrant
        # reprolint: lock-rank=TXN_MANAGER, reentrant
        self._lock = threading.RLock()
        #: member transactions opened here, by txid
        self._active: dict[int, Transaction] = {}
        #: transactions opened here, :meth:`begin_adopted` included
        self.begun = 0
        self.committed_count = 0
        self.aborted_count = 0
        self._obs = obs
        if obs is not None:
            from ..obs.registry import LATENCY_BUCKETS_US
            obs.registry.register_source("txn", self.metrics)
            self._m_commit_latency = obs.registry.histogram(
                "txn.commit.latency_us", LATENCY_BUCKETS_US)
            #: clock reading at begin, for the commit-latency histogram
            self._begin_at: dict[int, float] = {}
        #: durability hooks, run while the transaction is still ACTIVE and
        #: *before* the status flip — a crash inside a commit hook (WAL
        #: append) leaves the transaction uncommitted, which is exactly the
        #: not-yet-acknowledged semantics recovery assumes
        self._commit_hooks: list[TxnHook] = []
        self._abort_hooks: list[TxnHook] = []

    def add_commit_hook(self, hook: TxnHook) -> None:
        """Register ``hook(txn)`` to run at every commit, pre-status-flip."""
        self._commit_hooks.append(hook)

    def add_abort_hook(self, hook: TxnHook) -> None:
        self._abort_hooks.append(hook)

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> Transaction:
        with self._lock:
            txid, snapshot = self.horizon.begin()
            txn = Transaction(txid, snapshot, self)
            self._active[txid] = txn
            self.begun += 1
        self._charge_overhead()
        if self._obs is not None:
            self._begin_at[txid] = self.clock.now
            self._obs.tracer.emit("txn.begin", txid=txid)
        return txn

    def begin_adopted(self, txid: int, snapshot: Snapshot) -> Transaction:
        """Open a transaction under an externally allocated global txid.

        The sharding coordinator (:mod:`repro.shard`) allocates one global
        txid + snapshot per distributed transaction from the horizon it
        shares with every shard; the transaction joins a shard through
        this entry point on first touch — the first statement the router
        sends that shard — so begin and finish are charged only where it
        acts.  A shard it never joins reads it in progress until it is
        decided.
        """
        with self._lock:
            if txid in self._active:
                raise TransactionStateError(
                    f"transaction {txid} is already active")
            if self.commit_log.status(txid) is not TxnStatus.IN_PROGRESS:
                raise TransactionStateError(
                    f"transaction {txid} was already decided")
            txn = Transaction(txid, snapshot, self)
            self._active[txid] = txn
            self.begun += 1
        self._charge_overhead()
        if self._obs is not None:
            self._begin_at[txid] = self.clock.now
            self._obs.tracer.emit("txn.begin", txid=txid, adopted=True)
        return txn

    def commit(self, txn: Transaction) -> None:
        """Single-caller commit: durability hooks, then the status flip.

        The hooks run while the transaction is still ACTIVE and *before*
        the flip — a crash inside a hook (WAL append) leaves the
        transaction uncommitted.  The serve layer's group commit replaces
        the hook phase with one batched WAL append and then calls
        :meth:`finish_commit` per transaction.
        """
        if txn.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {txn.id} already {txn.state.value}")
        for hook in self._commit_hooks:
            hook(txn)
        self.finish_commit(txn)

    def finish_commit(self, txn: Transaction) -> None:
        """Publish a durably-logged transaction as COMMITTED (flip phase).

        Callers must have made the commit durable first (either via the
        registered hooks or via one group WAL append covering it); this
        method only flips its commit-log status and removes it from the
        active set — after it returns, every *new* snapshot sees the
        transaction's effects.
        """
        self._finish(txn, TxnState.COMMITTED)
        with self._lock:
            self.committed_count += 1
        if self._obs is not None:
            started = self._begin_at.pop(txn.id, None)
            elapsed = self.clock.now - started if started is not None else 0.0
            self._m_commit_latency.observe(elapsed * 1e6)
            self._obs.tracer.emit("txn.commit", txid=txn.id)

    def abort(self, txn: Transaction) -> None:
        if txn.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {txn.id} already {txn.state.value}")
        for hook in self._abort_hooks:
            hook(txn)
        self._finish(txn, TxnState.ABORTED)
        with self._lock:
            self.aborted_count += 1
        if self._obs is not None:
            self._begin_at.pop(txn.id, None)
            self._obs.tracer.emit("txn.abort", txid=txn.id)

    def _finish(self, txn: Transaction, state: TxnState) -> None:
        with self._lock:
            if txn.state is not TxnState.ACTIVE:
                raise TransactionStateError(
                    f"transaction {txn.id} already {txn.state.value}")
            txn.state = state
            del self._active[txn.id]
            self.horizon.finish(txn.id, state is TxnState.COMMITTED)
        self._charge_overhead()

    # ------------------------------------------------------------ inspection

    def metrics(self) -> "Metrics":
        """The ``txn.*`` view of this manager's own counters."""
        return {"txn.begin.count": self.begun,
                "txn.commit.count": self.committed_count,
                "txn.abort.count": self.aborted_count}

    @property
    def next_txid(self) -> int:
        """The next transaction id the horizon issues (a manifest flip's
        watermark)."""
        return self.horizon.next_txid

    @property
    def active_transactions(self) -> list[Transaction]:
        with self._lock:
            return list(self._active.values())

    def cutoff_txid(self) -> int:
        """Oldest snapshot horizon any active transaction can see below.

        Versions superseded by a change with timestamp < cutoff are invisible
        to all current and future snapshots and can be garbage collected.
        With no active transactions the cutoff is the next transaction id
        (:attr:`next_txid`).
        """
        snapshots = self.active_snapshots()
        if not snapshots:
            return self.next_txid
        return min(snapshot.xmin for snapshot in snapshots)

    def active_snapshots(self) -> list[Snapshot]:
        """Snapshots of all currently active transactions (interval GC):
        the horizon's, so on a shard every global transaction's, joined
        here or not."""
        with self._lock:
            return list(self.horizon.active.values())

    def status_of(self, txid: int) -> TxnStatus:  # reprolint: disable=R12 -- tests/crash/harness.py checks commit status after recovery
        return self.commit_log.status(txid)

    # --------------------------------------------------------------- helpers

    def _charge_overhead(self) -> None:
        clock = self.clock
        clock.advance(clock.cost.txn_overhead)

    def __repr__(self) -> str:
        return (f"TransactionManager(next={self.next_txid}, "
                f"active={len(self._active)})")
