"""Runtime durability orchestration (DESIGN.md §11.3).

One :class:`DurabilityController` per database instance owns the manifest
store and the WAL and attaches to the transaction manager's commit/abort
hooks:

- Mutations of a durable MV-PBT's ``P_N`` buffer per-transaction in the
  tree (:attr:`MVPBT._wal_pending`).  At **commit**, the pending records of
  all registered trees plus a COMMIT marker are appended to the WAL in one
  call — the commit is acknowledged only after the log pages are durable,
  and a crash mid-append leaves the marker unwritten, keeping the
  transaction invisible.  A commit that wrote nothing
  (:meth:`DurabilityController.wrote_nothing`) has nothing to make durable
  and issues no I/O at all — but for every :data:`HORIZON_STRIDE`-th
  txid, which keeps its marker, and the last touched shard of a
  cross-shard commit, whose marker is the decision
  (:meth:`DurabilityController.append_commit`).  **Abort** just drops the
  pending buffers.
- **Eviction** makes the evicted records partition-durable, so the tree's
  WAL floor advances to ``end_lsn``, the manifest flips, pending buffers
  for records now living in the partition are dropped, and fully-covered
  WAL pages are truncated.
- **Merge / bulk load** flip the manifest without moving any floor; merge
  frees its input extents only after the flip (install-before-retire).
- **Checkpoint**: an index whose ``P_N`` never evicts would keep its floor,
  and so every log page since it, live.  Once the live sealed log exceeds
  :data:`CHECKPOINT_BUFFERS` partition buffers, the write path images every
  tree's ``P_N`` records that no pending commit owes the log into one
  append, moves every floor to that append's first LSN, flips the manifest
  and truncates.  ``P_N`` stays in memory: the read path is untouched.

The ordering invariant throughout: *new state fully written → manifest
flip → old state freed*.  A crash at any I/O lands on one side of the flip
and recovery sees either the complete old or the complete new state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..core.records import MVPBTRecord
from .manifest import (IndexManifest, ManifestState, ManifestStore,
                       PartitionMeta)
from .wal import WriteAheadLog

if TYPE_CHECKING:
    from ..core.partition import PersistedPartition
    from ..core.tree import MVPBT
    from ..obs.core import Observability
    from ..obs.registry import Metrics
    from ..txn.manager import TransactionManager
    from ..txn.transaction import Transaction

#: a commit whose txid is a multiple of this keeps its COMMIT marker even
#: when it wrote nothing (the horizon marker, DESIGN.md §11.3)
HORIZON_STRIDE = 32

#: the live sealed log may hold this many partition buffers' worth of
#: pages before a checkpoint moves every WAL floor (DESIGN.md §11.3)
CHECKPOINT_BUFFERS = 8


def partition_meta(partition: "PersistedPartition") -> PartitionMeta:
    """Snapshot one live partition's manifest record: pointers only, its
    filters stay in its filter block."""
    run = partition.run
    return PartitionMeta(
        number=partition.number,
        record_count=run.record_count,
        size_bytes=run.size_bytes,
        min_ts=partition.min_ts,
        max_ts=partition.max_ts,
        page_nos=list(run.page_nos),
        fences=list(run._fences),
        min_key=run.min_key,
        max_key=run.max_key,
        filter_pages=list(run.trailer_page_nos))


class DurabilityController:
    """Glue between the transaction manager, MV-PBT trees, WAL and
    manifest."""

    def __init__(self, manifest: ManifestStore, wal: WriteAheadLog,
                 manager: "TransactionManager",
                 obs: "Observability | None" = None) -> None:
        self.manifest = manifest
        self.wal = wal
        self.manager = manager
        self._trees: dict[str, "MVPBT"] = {}
        self._floors: dict[str, int] = {}
        self.checkpoints = 0
        self._obs = obs
        if obs is not None:
            registry = obs.registry
            registry.register_source("wal", self.metrics)
            # the two facts neither the log nor the manifest records
            self._m_commits_elided = registry.counter("wal.commits_elided")
            self._m_markers_deferred = registry.counter(
                "wal.markers_deferred")
        manager.add_commit_hook(self._on_commit)
        manager.add_abort_hook(self._on_abort)

    # ---------------------------------------------------------- registration

    def register(self, tree: "MVPBT", *, wal_floor: int | None = None) -> None:
        """Attach a tree; its mutations start flowing through the WAL."""
        self._trees[tree.name] = tree
        self._floors[tree.name] = (self.wal.end_lsn if wal_floor is None
                                   else wal_floor)
        tree._durability = self

    @property
    def trees(self) -> dict[str, "MVPBT"]:
        return dict(self._trees)

    def metrics(self) -> "Metrics":
        """The ``wal.*`` / ``manifest.*`` view of the log's and the
        manifest store's own counters."""
        wal = self.wal
        return {"wal.appends": wal.appends,
                "wal.entries": wal.entries_appended,
                "wal.bytes_appended": wal.bytes_written,
                "wal.pad_bytes": wal.pad_bytes,
                "wal.pages_freed": wal.pages_freed,
                "wal.checkpoints": self.checkpoints,
                "manifest.flips": self.manifest.flips}

    # ------------------------------------------------------------- txn hooks

    def wrote_nothing(self, txn: "Transaction") -> bool:
        """May ``txn`` commit without WAL I/O?  (DESIGN.md §11.3)

        True only when the transaction changed no base table and logged no
        record on any registered tree.  Three record-less transactions are
        *not* covered and keep their COMMIT marker: one that only touched
        base tables (``txn.writes``), one whose index records a
        mid-transaction eviction already made partition-durable — the tree
        remembers that it logged (:meth:`MVPBT.logged_by`) even though its
        pending buffer is empty — and the horizon marker, every
        :data:`HORIZON_STRIDE`-th txid.  Must run before the drain, inside
        the engine slot; a pure function of the transaction, so asking
        twice (session, then hook) gives one answer.
        """
        txid = txn.id
        if txn.writes or txid % HORIZON_STRIDE == 0:
            return False
        return not any(tree.logged_by(txid) for tree in self._trees.values())

    def _on_commit(self, txn: "Transaction") -> None:
        if self.wrote_nothing(txn):
            if self._obs is not None:
                self._m_commits_elided.inc()
            return
        self.append_commit(txn)

    def append_commit(self, txn: "Transaction") -> None:
        """Drain one transaction's pending records and append them with its
        COMMIT marker in one durable write — the commit hook's append once
        :meth:`wrote_nothing` has said no, and a multi-shard commit's
        decision, which is never elided (the last agent, DESIGN.md §16.3).
        """
        records = self.drain_commit_records(txn)
        mark = self._wal_mark()
        self.wal.log(records, commit_txid=txn.id)
        if self._obs is not None:
            self._note_append("wal.append", mark, txid=txn.id)

    def _wal_mark(self) -> tuple[int, int]:
        return self.wal.entries_appended, self.wal.bytes_written

    def _note_append(self, event: str, mark: tuple[int, int],
                     **fields: object) -> None:
        """Trace one durable append (everything since ``mark``).  Callers
        guard on ``self._obs``."""
        assert self._obs is not None
        self._obs.tracer.emit(event,
                              entries=self.wal.entries_appended - mark[0],
                              bytes=self.wal.bytes_written - mark[1],
                              **fields)

    def drain_commit_records(
            self, txn: "Transaction") -> list[tuple[str, MVPBTRecord]]:
        """Take one committing transaction's pending records off every
        registered tree (the commit hook's drain phase, exposed so the
        serve layer's group-commit leader can batch several transactions'
        drains into a single WAL append).

        Must run while the transaction is still ACTIVE and the caller
        holds the engine slot — tree state is engine-lock-confined.
        """
        records: list[tuple[str, MVPBTRecord]] = []
        for tree in self._trees.values():
            for record in tree.drain_wal_pending(txn.id):
                records.append((tree.name, record))
        return records

    def append_group(
            self,
            batch: "list[tuple[Transaction, list[tuple[str, MVPBTRecord]]]]",
    ) -> None:
        """Make a whole commit group durable in one WAL append (one fsync).

        ``batch`` pairs each committing transaction with the records its
        drain returned, in group order.  Each transaction's records
        precede its COMMIT marker and LSNs are contiguous across the
        batch, so the torn-write recovery invariant is per transaction
        (see :meth:`~repro.durability.wal.WriteAheadLog.log_group`).  The
        caller flips commit statuses only after this returns — a crash
        anywhere inside leaves every transaction of the group
        unacknowledged, and recovery commits exactly the durable-marker
        prefix.
        """
        mark = self._wal_mark()
        self.wal.log_group(
            [(records, txn.id) for txn, records in batch])
        if self._obs is not None:
            self._note_append("wal.append_group", mark,
                              txids=[t.id for t, _r in batch])

    # ----------------------------------------------------- sharded 2PC hooks

    def append_prepare(self, txn: "Transaction") -> int:
        """Drain one transaction's pending records and append them with a
        PREPARE marker in one durable write (shard-commit phase one,
        DESIGN.md §16.3).  Returns the number of records drained.

        The transaction stays ACTIVE and undecided: recovery treats a
        PREPARE without a commit decision (this shard's marker, or the last
        agent's on another shard) as aborted.
        """
        records = self.drain_commit_records(txn)
        mark = self._wal_mark()
        self.wal.log_prepare(records, txn.id)
        if self._obs is not None:
            self._note_append("wal.prepare", mark, txid=txn.id)
        return len(records)

    def append_commit_marker(self, txid: int) -> None:
        """Shard-commit phase two: stage a COMMIT marker, no I/O.

        The last agent's commit append already made the outcome durable,
        and sharded recovery unions every shard's commit evidence
        (DESIGN.md §16.5) — so the local marker is a convenience that
        rides on this shard's next durable append instead of costing an
        fsync of its own."""
        self.wal.stage_commit_marker(txid)
        if self._obs is not None:
            self._m_markers_deferred.inc()
            self._obs.tracer.emit("wal.commit_marker", txid=txid,
                                  deferred=True)

    def _on_abort(self, txn: "Transaction") -> None:
        for tree in self._trees.values():
            tree.drain_wal_pending(txn.id)

    def log_records(self, tree: "MVPBT",
                    records: Iterable[MVPBTRecord]) -> None:
        """Immediately log already-decided records (CREATE INDEX build path:
        their timestamps are historical, no commit will follow)."""
        entries = [(tree.name, record) for record in records]
        if not entries:
            return
        mark = self._wal_mark()
        self.wal.log(entries)
        if self._obs is not None:
            self._note_append("wal.append", mark, txid=None)

    # ------------------------------------------------------- reorganisations

    def on_eviction(self, tree: "MVPBT") -> None:
        """``P_N`` just became a persisted partition: flip and truncate."""
        self._floors[tree.name] = self.wal.end_lsn
        self.manifest.write(self.snapshot_state())
        self._note_flip()
        # the evicted records live in the partition now; replaying them
        # from the WAL as well would duplicate them
        tree.clear_wal_pending()
        self._truncate()

    def maybe_checkpoint(self, buffer_bytes: int) -> None:
        """Checkpoint once the live sealed log outgrows
        :data:`CHECKPOINT_BUFFERS` partition buffers of ``buffer_bytes``.

        Only the write path calls this, right after
        :meth:`PartitionBuffer.maybe_evict` and inside the engine slot —
        never a commit hook, a group leader, recovery or a rebalance: a
        checkpoint between a commit's append and its status flip would
        list the transaction as active and truncate away its marker.
        """
        if self.wal.sealed_bytes > CHECKPOINT_BUFFERS * buffer_bytes:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Image every ``P_N`` into the log, move every floor, flip,
        truncate.

        The image holds each tree's ``P_N`` records that no open
        transaction still owes the log (its pending records follow with
        its COMMIT marker), as RECORD entries in one append with no
        marker.  The flip then records as decided every txid whose marker
        the truncation drops.  A crash before the flip recovers with the
        old floors, and replay keeps the first copy of each record it
        reads twice (:func:`~repro.durability.recovery.read_durable_state`).
        """
        entries: list[tuple[str, MVPBTRecord]] = []
        for name, tree in self._trees.items():
            entries.extend((name, record)
                           for record in tree.checkpoint_records())
        floor = self.wal.end_lsn
        mark = self._wal_mark()
        self.wal.log(entries)
        for name in self._floors:
            self._floors[name] = floor
        self.checkpoints += 1
        if self._obs is not None:
            self._note_append("wal.checkpoint", mark, floor=floor)
        self.manifest.write(self.snapshot_state())
        self._note_flip()
        self._truncate()

    def on_reorg(self, tree: "MVPBT") -> None:
        """A merge or bulk load changed the partition set: flip.

        The caller must invoke this *after* the new partition is fully
        written and *before* retired input extents are freed.
        """
        self.manifest.write(self.snapshot_state())
        self._note_flip()
        self._truncate()

    def snapshot_state(self) -> ManifestState:
        manager = self.manager
        # on a shard, the cluster's active set and watermark: an id
        # active globally but not yet joined here is still undecided, and
        # inferring it committed would commit its later PREPAREd records
        state = ManifestState(
            txid_watermark=manager.next_txid,
            aborted_txids=sorted(manager.commit_log.aborted_ids),
            active_txids=sorted(snap.owner
                                for snap in manager.active_snapshots()))
        for name, tree in self._trees.items():
            state.indexes[name] = IndexManifest(
                name=name,
                mem_number=tree._mem.number,
                next_seq=tree._next_seq,
                wal_floor=self._floors[name],
                partitions=[partition_meta(p) for p in tree._persisted])
        return state

    def _note_flip(self) -> None:
        if self._obs is not None:
            self._obs.tracer.emit("manifest.flip",
                                  epoch=self.manifest.epoch)

    def _truncate(self) -> None:
        if self._floors:
            freed = self.wal.truncate_below(min(self._floors.values()))
            if freed and self._obs is not None:
                self._obs.tracer.emit("wal.truncate", pages_freed=freed)

    def __repr__(self) -> str:
        return (f"DurabilityController(trees={sorted(self._trees)}, "
                f"epoch={self.manifest.epoch}, wal_end={self.wal.end_lsn})")
