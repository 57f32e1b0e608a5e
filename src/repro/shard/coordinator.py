"""The cross-shard txid authority (DESIGN.md §16.2).

One :class:`ShardCoordinator` per :class:`~repro.shard.router.ShardedDatabase`
is the cluster's only allocator of transaction ids and owns its one
:class:`~repro.txn.status.CommitLog`: every router transaction gets one
(txid, snapshot) pair here, and joins a shard on first touch — the first
statement the router sends it
(:meth:`~repro.txn.manager.TransactionManager.begin_adopted`) — so a
cross-shard read observes one consistent cut: the same txid is either
visible on every shard or on none.

Whatever a shard must know of transactions that have not joined it lives
here.  :meth:`enlist` hands every shard's manager this commit log and
makes it read its horizon from the global active set (:attr:`active`,
:attr:`next_txid`): GC, vacuum and manifest flips keep what a snapshot
that has not reached the shard yet still needs, and a flip never infers
an undecided id committed.  :meth:`begin` registers an id in the log and
:meth:`finish` records its outcome there, once for every shard.

The commit point of a multi-shard transaction is :meth:`log_decision`,
called *between* the shards' PREPARE and COMMIT phases: it runs the last
touched shard's commit append (its records plus a COMMIT marker, in one
write), so the decision lives in that shard's log — the last-agent
optimisation of Samaras et al.  The coordinator therefore writes no
commit I/O at all.  When the router is durable it keeps its own device +
WAL for **NOTE layout snapshots** only: the serialized partitioner state
(deterministic JSON, sorted keys), appended whenever a rebalance flips
the shard layout.  Recovery restores the newest one.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping

from ..durability.wal import KIND_NOTE, WriteAheadLog
from ..errors import RecoveryError
from ..sim.clock import SimClock
from ..txn.snapshot import Snapshot
from ..txn.status import CommitLog
from .partitioner import HashPartitioner

if TYPE_CHECKING:
    from ..durability.controller import DurabilityController
    from ..obs.core import Observability
    from ..storage.pagefile import PageFile
    from ..txn.manager import TransactionManager
    from ..txn.transaction import Transaction


class ShardCoordinator:
    """Global txid allocation, the commit log, snapshot capture, the commit
    point and the layout log."""

    def __init__(self, partitioner: HashPartitioner, *,
                 clock: SimClock | None = None,
                 log_file: "PageFile | None" = None,
                 obs: "Observability | None" = None) -> None:
        self.partitioner = partitioner
        self.clock = clock if clock is not None else SimClock()
        self._obs = obs
        self.log: WriteAheadLog | None = None
        self._next_txid = 1
        #: global active set: txid -> its snapshot, in begin order
        self._active: dict[int, Snapshot] = {}
        #: the cluster's one commit log, shared by every shard's manager
        self.commit_log = CommitLog()
        #: txids this coordinator decided committed (multi-shard commits);
        #: the durable decisions are the last agents' COMMIT markers
        self.decisions: set[int] = set()
        if log_file is not None:
            self.log = WriteAheadLog(log_file)
            # the initial layout is durable from the start: a crash before
            # the first rebalance still recovers a partitioner
            self.log_layout()

    # -------------------------------------------------------------- lifecycle

    def begin(self) -> tuple[int, Snapshot]:
        """Allocate a global txid and capture the global snapshot."""
        txid = self._next_txid
        self._next_txid += 1
        active = frozenset(self._active)
        snapshot = Snapshot(owner=txid, xmax=txid, active=active,
                            xmin=min(active) if active else txid)
        self._active[txid] = snapshot
        self.commit_log.register(txid)
        return txid, snapshot

    def log_decision(self, agent: "DurabilityController",
                     txn: "Transaction") -> None:
        """Durably decide a multi-shard transaction COMMITTED — the atomic
        commit point between the shards' PREPARE and COMMIT phases.

        ``agent`` is the last touched shard's durability controller and
        ``txn`` that shard's member transaction: the decision is its commit
        append (records + COMMIT marker in one write).  The append is never
        elided, even for a member that wrote nothing — the other shards'
        PREPAREs hold effects only this marker can commit."""
        agent.append_commit(txn)
        self.decisions.add(txn.id)
        if self._obs is not None:
            self._obs.tracer.emit("shard.decision", txid=txn.id)

    def enlist(self, managers: "list[TransactionManager]") -> None:
        """Make these shard managers read their horizon and every
        transaction's status here."""
        for manager in managers:
            manager.horizon = self
            manager.commit_log = self.commit_log

    def finish(self, txid: int, committed: bool) -> None:
        """Remove a decided (committed or aborted) txid from the global
        active set — later snapshots and horizons stop carrying it — and
        record its outcome, for every shard, joined or not."""
        self._active.pop(txid, None)
        if committed:
            self.commit_log.set_committed(txid)
        else:
            self.commit_log.set_aborted(txid)

    # ----------------------------------------------------------------- layout

    def log_layout(self) -> None:
        """Durably snapshot the current partitioner (the rebalance flip)."""
        if self.log is None:
            return
        payload = json.dumps(self.partitioner.to_state(),
                             sort_keys=True).encode("utf-8")
        self.log.log_note(payload)
        if self._obs is not None:
            self._obs.tracer.emit("shard.layout", bytes=len(payload))

    # ------------------------------------------------------------- inspection

    @property
    def next_txid(self) -> int:
        return self._next_txid

    @property
    def active(self) -> Mapping[int, Snapshot]:
        """The global active set: txid -> snapshot, in begin order."""
        return self._active

    @property
    def active_count(self) -> int:
        return len(self._active)

    # --------------------------------------------------------------- recovery

    @classmethod
    def recover(cls, log_file: "PageFile", *,
                clock: SimClock | None = None,
                obs: "Observability | None" = None,
                next_floor: int = 0) -> "ShardCoordinator":
        """Rebuild the coordinator from its surviving log.

        The newest NOTE entry restores the partitioner; commit evidence
        lives in the shards' logs, not here, so the caller restores
        :attr:`commit_log` from their union.  ``next_floor`` carries the
        crashed in-memory allocator position (host-recovered): an id
        handed out but never made durable anywhere must still never be
        reissued.
        """
        wal, entries = WriteAheadLog.recover(log_file)
        layout: bytes | None = None
        for entry in entries:
            if entry.kind == KIND_NOTE:
                layout = entry.note
        if layout is None:
            raise RecoveryError(
                "coordinator log holds no shard layout snapshot")
        partitioner = HashPartitioner.from_state(
            json.loads(layout.decode("utf-8")))
        coord = cls(partitioner, clock=clock, obs=obs)
        coord.log = wal
        coord._next_txid = max(next_floor, 1)
        return coord

    def __repr__(self) -> str:
        return (f"ShardCoordinator(next={self._next_txid}, "
                f"active={len(self._active)}, "
                f"decisions={len(self.decisions)})")
