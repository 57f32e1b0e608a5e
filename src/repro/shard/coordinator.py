"""The cross-shard txid authority (DESIGN.md §16.2).

One :class:`ShardCoordinator` per :class:`~repro.shard.router.ShardedDatabase`
holds the cluster's one :class:`~repro.txn.manager.Horizon` — its txid
allocator, active set, snapshot capture and commit log — and
:meth:`enlist` gives it to every shard's manager.  Every router
transaction gets one (txid, snapshot) pair from it, and joins a shard on
first touch — the first statement the router sends it
(:meth:`~repro.txn.manager.TransactionManager.begin_adopted`) — so a
cross-shard read observes one consistent cut: the same txid is either
visible on every shard or on none.

Whatever a shard must know of transactions that have not joined it is
therefore its own horizon: GC, vacuum and manifest flips keep what a
snapshot that has not reached the shard yet still needs, and a flip never
infers an undecided id committed.  A member's finish on any shard records
the outcome once for every shard; :meth:`finish` records it for an id
that joined none.

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
from typing import TYPE_CHECKING

from ..durability.wal import KIND_NOTE, WriteAheadLog
from ..errors import RecoveryError
from ..sim.clock import SimClock
from ..txn.manager import Horizon
from ..txn.snapshot import Snapshot
from .partitioner import HashPartitioner

if TYPE_CHECKING:
    from ..durability.controller import DurabilityController
    from ..obs.core import Observability
    from ..storage.pagefile import PageFile
    from ..txn.manager import TransactionManager
    from ..txn.transaction import Transaction


class ShardCoordinator:
    """The cluster's horizon, the commit point and the layout log."""

    def __init__(self, partitioner: HashPartitioner, *,
                 clock: SimClock | None = None,
                 log_file: "PageFile | None" = None,
                 obs: "Observability | None" = None) -> None:
        self.partitioner = partitioner
        self.clock = clock if clock is not None else SimClock()
        self._obs = obs
        self.log: WriteAheadLog | None = None
        #: the cluster's one horizon, shared by every shard's manager
        self.horizon = Horizon()
        self.commit_log = self.horizon.commit_log
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
        return self.horizon.begin()

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
        """Give these shard managers the cluster's horizon."""
        for manager in managers:
            manager.horizon = self.horizon
            manager.commit_log = self.commit_log

    def finish(self, txid: int, committed: bool) -> None:
        """Decide ``txid`` for every shard: a no-op once a joined member's
        finish has, the only record for an id that joined no shard."""
        self.horizon.finish(txid, committed)

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
        return self.horizon.next_txid

    @property
    def active_count(self) -> int:
        return len(self.horizon.active)

    # --------------------------------------------------------------- recovery

    @classmethod
    def recover(cls, log_file: "PageFile", *,
                clock: SimClock | None = None,
                obs: "Observability | None" = None,
                next_floor: int = 0) -> "ShardCoordinator":
        """Rebuild the coordinator from its surviving log.

        The newest NOTE entry restores the partitioner.  Commit evidence
        lives in the shards' logs, not here: the router restores
        :attr:`horizon` once from their union and its own txid floor.
        Given ``next_floor`` instead — the crashed in-memory allocator
        position (host-recovered) — this restores the horizon with no
        commit evidence: an id handed out but never made durable anywhere
        is never reissued, and reads aborted.
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
        if next_floor:
            coord.horizon.restore(next_floor, set())
        return coord

    def __repr__(self) -> str:
        return (f"ShardCoordinator(next={self.next_txid}, "
                f"active={self.active_count}, "
                f"decisions={len(self.decisions)})")
