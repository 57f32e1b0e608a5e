"""Transaction manager: begin / commit / abort, cutoff tracking.

Implements snapshot isolation.  The *cutoff* transaction id (paper §4.6 —
"lowest active transaction timestamp") drives garbage collection: any version
superseded before the cutoff is invisible to every active and future
transaction and may be purged.

Thread safety (DESIGN.md §15.2): the manager is one of the explicitly
synchronized transaction components behind the serve layer.  Its mutable
state — the txid allocator, the active-transaction set and the commit/abort
counters — is guarded by one re-entrant mutex (rank TXN_MANAGER in the
serve lock order, acquired before the commit log's internal mutex and
after the engine slot).  Commit is split in two phases so WAL group commit
can interpose between them:

* the **hook phase** (:meth:`commit`) runs the registered durability hooks
  while the transaction is still ACTIVE — single-caller path, one WAL
  append per commit that wrote something (the durability hook does no
  I/O for one that did not, DESIGN.md §11.3);
* the **flip phase** (:meth:`finish_commit`) removes the transaction from
  the active set and publishes COMMITTED in the commit log.  The serve
  layer's group-commit leader calls it directly for every transaction of a
  group *after* the one batched WAL append made the whole group durable.

A transaction is only ever driven by one session thread; the mutex
serializes *different* transactions' lifecycle transitions against each
other and against snapshot capture in :meth:`begin`.

A shard's manager (one with a :attr:`~TransactionManager.horizon`)
allocates no id and keeps no commit log of its own: the cluster's
coordinator owns both (DESIGN.md §16.2).  It opens members under the
coordinator's ids (:meth:`~TransactionManager.begin_adopted`), reads its
active set and watermark from the horizon, and refuses a local
:meth:`~TransactionManager.begin`.
"""

from __future__ import annotations

import threading

from typing import TYPE_CHECKING, Mapping, Protocol

from ..errors import TransactionStateError
from ..sim.clock import SimClock
from ..types import TxnHook
from .snapshot import Snapshot
from .status import CommitLog, TxnStatus
from .transaction import Transaction, TxnState

if TYPE_CHECKING:
    from ..obs.core import Observability
    from ..obs.registry import Metrics


class Horizon(Protocol):
    """The cluster's transaction horizon a shard's manager reads: the
    global active set (txid -> snapshot, in begin order) and the next
    global txid (:class:`~repro.shard.coordinator.ShardCoordinator`)."""

    @property
    def active(self) -> Mapping[int, Snapshot]: ...

    @property
    def next_txid(self) -> int: ...


class TransactionManager:
    """Hands out monotonically increasing transaction ids and snapshots."""

    def __init__(self, clock: SimClock | None = None,
                 obs: "Observability | None" = None) -> None:
        self.clock = clock or SimClock()
        self.commit_log = CommitLog()
        #: rank TXN_MANAGER (§15.2), re-entrant
        # reprolint: lock-rank=TXN_MANAGER, reentrant
        self._lock = threading.RLock()
        self._next_txid = 1
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
        #: a shard's manager reads its horizon from the cluster: a global
        #: transaction is active here from its global begin, whether or
        #: not it has joined this shard yet (None: a single node).  With
        #: it the coordinator's commit log replaces :attr:`commit_log`
        self.horizon: Horizon | None = None

    def add_commit_hook(self, hook: TxnHook) -> None:
        """Register ``hook(txn)`` to run at every commit, pre-status-flip."""
        self._commit_hooks.append(hook)

    def add_abort_hook(self, hook: TxnHook) -> None:
        self._abort_hooks.append(hook)

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> Transaction:
        if self.horizon is not None:
            raise TransactionStateError(
                "a shard allocates no transaction id: begin at the router")
        with self._lock:
            txid = self._next_txid
            self._next_txid += 1
            active_ids = frozenset(self._active)
            xmin = min(active_ids) if active_ids else txid
            snapshot = Snapshot(owner=txid, xmax=txid, active=active_ids,
                                xmin=xmin)
            self.commit_log.register(txid)
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
        txid + snapshot per distributed transaction; it joins a shard
        through this entry point on first touch — the first statement
        the router sends that shard — so begin and finish are charged
        only where the transaction acts.  The id was registered, and its
        outcome is recorded, in the one commit log the coordinator shares
        with every shard, so a shard the transaction never joins still
        reads it in progress until it is decided.  The local allocator
        only moves past the id: a manager without a horizon that also
        begins locally never reissues it.
        """
        with self._lock:
            if txid in self._active:
                raise TransactionStateError(
                    f"transaction {txid} is already active")
            if self.commit_log.status(txid) is not TxnStatus.IN_PROGRESS:
                raise TransactionStateError(
                    f"transaction {txid} was already decided")
            self._next_txid = max(self._next_txid, txid + 1)
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
        method only removes the transaction from the active set and flips
        its commit-log status — after it returns, every *new* snapshot
        sees the transaction's effects.
        """
        self._finish(txn, TxnState.COMMITTED)
        self.commit_log.set_committed(txn.id)
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
        self.commit_log.set_aborted(txn.id)
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
        self._charge_overhead()

    def restore(self, next_txid: int, committed: set[int]) -> None:
        """Recovery entry point: adopt the durable transaction history.

        ``next_txid`` must exceed every txid whose effects may exist
        anywhere durable; ``committed`` lists the durably-committed ids.
        All other below-``next_txid`` ids become aborted.
        """
        with self._lock:
            if self._active:
                raise TransactionStateError(
                    f"cannot restore with {len(self._active)} active "
                    f"transactions")
            self._next_txid = max(next_txid, 1)
            self.commit_log.restore(self._next_txid, committed)
            self.committed_count = len(committed)
            if self._obs is not None:
                self._begin_at.clear()

    # ------------------------------------------------------------ inspection

    def metrics(self) -> "Metrics":
        """The ``txn.*`` view of this manager's own counters."""
        return {"txn.begin.count": self.begun,
                "txn.commit.count": self.committed_count,
                "txn.abort.count": self.aborted_count}

    @property
    def next_txid(self) -> int:
        """The next transaction id anyone may issue: this manager's, or
        on a shard the cluster's (a manifest flip's watermark)."""
        horizon = self.horizon
        return self._next_txid if horizon is None else horizon.next_txid

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
        on a shard, every global transaction's, joined here or not —
        every member here is one of them."""
        horizon = self.horizon
        if horizon is not None:
            return list(horizon.active.values())
        with self._lock:
            return [txn.snapshot for txn in self._active.values()]

    def status_of(self, txid: int) -> TxnStatus:  # reprolint: disable=R12 -- tests/crash/harness.py checks commit status after recovery
        return self.commit_log.status(txid)

    # --------------------------------------------------------------- helpers

    def _charge_overhead(self) -> None:
        clock = self.clock
        clock.advance(clock.cost.txn_overhead)

    def __repr__(self) -> str:
        return (f"TransactionManager(next={self._next_txid}, "
                f"active={len(self._active)})")
