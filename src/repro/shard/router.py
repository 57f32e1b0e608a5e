"""The keyspace router over N MV-PBT shards (DESIGN.md §16).

A :class:`ShardedDatabase` owns N fully independent
:class:`~repro.engine.database.Database` shards — each with its own
simulated device, buffer pool, partition buffer, WAL, manifest and
durability controller — plus one :class:`ShardCoordinator` (the global
txid authority, with its own durable layout log).  The router:

* sends a read or keyed DML statement only to shards that can own a
  matching row (:meth:`ShardedDatabase.plan_scan`): an index whose key
  covers the table's shard key routes a point key — and any range whose
  bounds share a prefix holding every shard-key column — to the one
  owner; everything else scatters to every shard and merges the
  already-ordered per-shard hits on the ``(index key tuple, shard)``
  order;
* opens a global transaction at the coordinator alone: it joins a
  shard on first touch (:meth:`ShardTransaction.on`), so begin and
  finish are charged only on the shards it reaches (DESIGN.md §16.2);
* commits with a single-shard fast path (the touched shard's ordinary
  commit appends records + COMMIT marker in one fsync) or a two-phase
  flow for multi-shard writes (a PREPARE append on every touched shard
  but the last, then the last one's commit append — the atomic commit
  point — then COMMIT markers on the prepared shards, staged in memory
  to ride on each shard's next append);
* drops **residue** — a copy a rebalance left on a shard that no
  longer owns its shard key — through the ownership filter, which makes
  every rebalance crash window read-consistent.  Table stores keep the
  chains every completed rebalance moved away, so a sequential scan
  always filters; an index tree holds residue only from copy-in until
  the last copy-out, or after an interrupted rebalance, so index reads
  filter only while :attr:`ShardedDatabase.index_residue` is raised (for
  good on a recovered router);
* deals the hash slots a bulk load fills to the least-loaded shards
  before its rows land (:meth:`ShardedDatabase._place`), because the
  slowest shard sets the router's time.

**Time model:** each shard keeps its own :class:`SimClock`, modelling
shards that progress in parallel on independent hardware;
:attr:`sim_now` — the router-level simulated time — is the *maximum*
over all clocks.  That max is the busiest clock's own summed work, not a
critical path: no clock ever waits for another, so a served op's legs,
and one client's successive ops, overlap for free, and served
throughput reads above what one closed-loop client could reach
(DESIGN.md §16.2; ROADMAP Fact 3).  The parallelism lives on the
simulated clock only: a scatter read visits its shards one after another
on the caller's thread.

Thread safety: none here (this package never imports threading, and
never runs a shard on another thread).  Concurrent sessions go through
:class:`repro.serve.shard_server.ShardServer`, whose FIFO scheduler slot
confines router + shards + coordinator to one thread at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..config import EngineConfig
from ..engine.database import Database
from ..engine.executor import IndexSlice, ScanLeg, ScanPlan
from ..errors import (CatalogError, ConfigError, RecoveryError,
                      TransactionStateError)
from ..obs.core import Observability
from ..obs.profile import profile_query
from ..sim.clock import SimClock
from ..sim.device import SimulatedDevice
from ..sim.profiles import INTEL_DC_P3600, DeviceProfile
from ..sim.trace import IOTrace
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..txn.transaction import TxnState
from ..types import JSONDict, Key, Row
from .coordinator import ShardCoordinator
from .partitioner import HashPartitioner
from .rebalance import not_quiescent, rebalance
from .txn import ShardTransaction

if TYPE_CHECKING:
    from ..core.tree import SearchHit
    from ..engine.catalog import IndexInfo
    from ..engine.database import VacuumResult
    from ..engine.executor import RowHit
    from ..serve.config import ServeConfig
    from ..serve.shard_server import ShardServer

@dataclass
class ShardConfig:
    """Topology knobs for one :class:`ShardedDatabase`."""

    #: number of independent Database shards
    shards: int = 2
    #: virtual CRC32 slot count (rebalance granularity)
    hash_slots: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1: {self.shards}")


class ShardedDatabase:
    """N independent shards behind one Database-shaped facade."""

    def __init__(self, config: EngineConfig | None = None,
                 shard_config: ShardConfig | None = None,
                 profile: DeviceProfile = INTEL_DC_P3600) -> None:
        self.config = config if config is not None else EngineConfig()
        self.shard_config = (shard_config if shard_config is not None
                             else ShardConfig())
        partitioner = HashPartitioner(self.shard_config.shards,
                                      slots=self.shard_config.hash_slots)
        #: the router/coordinator clock (each shard has its own)
        self.clock = SimClock(cost=self.config.cost)
        self.trace = IOTrace()
        self.obs: Observability | None = None
        if self.config.obs.enabled:
            self.obs = Observability(self.config.obs, self.clock)
        #: independent engine instances — own device, pool, WAL, manifest
        self.shards = [Database(self.config, profile)
                       for _ in range(self.shard_config.shards)]
        self.coordinator_device: SimulatedDevice | None = None
        self.coordinator_file: PageFile | None = None
        log_file: PageFile | None = None
        if self.config.durability:
            self.coordinator_device = SimulatedDevice(profile, self.clock,
                                                      self.trace)
            if self.obs is not None:
                self.obs.attach_device(self.coordinator_device)
            self.coordinator_file = PageFile(
                "coord:log", self.coordinator_device, self.config.page_size,
                self.config.extent_pages)
            log_file = self.coordinator_file
        self.coordinator = ShardCoordinator(partitioner, clock=self.clock,
                                            log_file=log_file, obs=self.obs)
        self.coordinator.enlist([db.txn for db in self.shards])
        #: table -> shard-key column positions
        self._tables: dict[str, tuple[int, ...]] = {}
        #: index -> offset of each shard-key column inside the index key
        #: (shard-key order); None when the key does not cover them all
        self._key_offsets: dict[str, tuple[int, ...] | None] = {}
        #: rows bulk-loaded into each slot: steers placement, never
        #: correctness (any layout is correct)
        self._slot_rows = [0] * self.shard_config.hash_slots
        #: an index tree may hold residue: raised by a rebalance from
        #: copy-in to its last copy-out (for good if it never gets
        #: there) and for good on a recovered router, whose crash may
        #: have left copied-in records without a layout NOTE
        self.index_residue = False
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        if self.obs is None:
            return
        registry = self.obs.registry
        registry.register_source("shard", lambda: {
            "shard.sim_now.seconds": self.sim_now,
            "shard.coordinator.active": float(
                self.coordinator.active_count)})
        self._m_begins = registry.counter("shard.txn.begins")
        self._m_commit_single = registry.counter(
            "shard.txn.commits.single_shard")
        self._m_commit_cross = registry.counter(
            "shard.txn.commits.cross_shard")
        self._m_commit_readonly = registry.counter(
            "shard.txn.commits.read_only")
        self._m_aborts = registry.counter("shard.txn.aborts")
        self._m_prepares = registry.counter("shard.2pc.prepares")
        self._m_decisions = registry.counter("shard.2pc.decisions")
        self._m_point = registry.counter("shard.queries.point")
        self._m_scan = registry.counter("shard.queries.scan")
        self._m_fanout = registry.counter("shard.queries.fanout")
        self._m_slot_routed = registry.counter("shard.queries.slot_routed")
        self._m_residue = registry.counter("shard.hits.residue_filtered")
        self._m_hits_pulled = registry.counter("shard.scan.hits_pulled")
        self._m_runs_pulled = registry.counter("shard.scan.runs_pulled")
        self._m_rebalances = registry.counter("shard.rebalance.count")
        self._m_moved_records = registry.counter(
            "shard.rebalance.records_moved")
        self._m_moved_versions = registry.counter(
            "shard.rebalance.versions_moved")

    # ------------------------------------------------------------- properties

    @property
    def partitioner(self) -> HashPartitioner:
        return self.coordinator.partitioner

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def layout(self) -> HashPartitioner:
        """What a planned scan's legs depend on besides the snapshot and
        the transaction's own writes: the partitioner object (a rebalance
        installs a new one)."""
        return self.partitioner

    @property
    def sim_now(self) -> float:
        """Router-level simulated time: the slowest component's clock —
        shards progress in parallel, so elapsed time is their max."""
        return max(self.clock.now, *(db.clock.now for db in self.shards))

    # -------------------------------------------------------------------- DDL

    def create_table(self, name: str, columns: Sequence[tuple[str, str]],
                     storage: str = "sias", *,
                     shard_key: Sequence[str] | None = None) -> None:
        """Create the table on every shard.

        ``shard_key`` — the columns whose values place a row (default: the
        first column).  Rows are routed by these columns; an update that
        changes them moves the row between shards (delete + insert).
        """
        if storage == "delta":
            raise ConfigError(
                "sharded tables support 'heap' or 'sias' storage (delta "
                "chains cannot be rebalanced between shards)")
        key_columns = (list(shard_key) if shard_key is not None
                       else [columns[0][0]])
        for db in self.shards:
            db.create_table(name, columns, storage)
        schema = self.shards[0].catalog.table(name).schema
        self._tables[name] = tuple(schema.positions(key_columns))

    def create_index(self, name: str, table: str, columns: Sequence[str], *,
                     kind: str = "mvpbt", unique: bool = False,
                     reference: str = "physical",
                     **options: object) -> None:
        """Create the index on every shard (MV-PBT, physical refs only)."""
        if kind != "mvpbt":
            raise ConfigError(
                f"sharded indexes must be MV-PBT, not {kind!r}")
        if reference != "physical":
            raise ConfigError(
                "sharded indexes use physical references (logical VIDs "
                "are shard-local and cannot survive a rebalance)")
        positions = tuple(
            self.shards[0].catalog.table(table).schema.positions(
                list(columns)))
        if unique and positions != self._tables[table]:
            raise ConfigError(
                f"unique index {name!r} must be on the shard key: a "
                f"shard-local check cannot see other shards' keys")
        for db in self.shards:
            db.create_index(name, table, columns, kind=kind, unique=unique,
                            reference=reference, **options)
        shard_key = self._tables[table]
        self._key_offsets[name] = (
            tuple(positions.index(p) for p in shard_key)
            if set(shard_key) <= set(positions) else None)

    # ------------------------------------------------------------ txn control

    def begin(self) -> ShardTransaction:
        """Open one global transaction: the coordinator allocates the txid
        and snapshot; a shard's member opens when a statement first
        reaches it (:meth:`ShardTransaction.on`)."""
        txid, snapshot = self.coordinator.begin()
        if self.obs is not None:
            self._m_begins.inc()
        return ShardTransaction(txid, snapshot, self)

    def commit(self, txn: ShardTransaction) -> None:
        """Commit on the joined shards: read-only and single-shard
        transactions take the ordinary one-fsync path; multi-shard writes
        run the two-phase marker flow with the last touched shard's commit
        append as the atomic commit point (DESIGN.md §16.3).  Shards the
        transaction never joined learn the outcome from the coordinator,
        uncharged."""
        if not txn.is_active:
            raise TransactionStateError(
                f"transaction {txn.id} is not active")
        touched = sorted(txn.touched)
        members = txn.members
        durable = self.config.durability
        if len(touched) == 1:
            # fast path: one shard's normal commit = records + COMMIT
            # marker in one append; other joined shards flip status only
            # (no I/O)
            k = touched[0]
            self.shards[k].txn.commit(txn.on(k))
            for j, member in members.items():
                if j != k:
                    self.shards[j].txn.finish_commit(member)
            if self.obs is not None:
                self._m_commit_single.inc()
        elif touched and durable:
            # phase one: every touched shard but the last makes its slice
            # durable, undecided (records + PREPARE, one append per shard)
            *prepared, last = touched
            for k in prepared:
                durability = self.shards[k].durability
                assert durability is not None
                durability.append_prepare(txn.on(k))
                if self.obs is not None:
                    self._m_prepares.inc()
            # the commit point: the last shard's commit append (records +
            # COMMIT marker) — before it the transaction recovers aborted
            # on every shard, after it committed on every shard
            agent = self.shards[last].durability
            assert agent is not None
            self.coordinator.log_decision(agent, txn.on(last))
            if self.obs is not None:
                self._m_decisions.inc()
            # phase two: the prepared shards' COMMIT markers, staged
            # without I/O — the last shard's marker already made the
            # outcome durable, and recovery unions every shard's markers
            for k in prepared:
                durability = self.shards[k].durability
                assert durability is not None
                durability.append_commit_marker(txn.id)
            for j, member in members.items():
                self.shards[j].txn.finish_commit(member)
            if self.obs is not None:
                self._m_commit_cross.inc()
        else:
            # read-only, or multi-shard without durability: status flips
            # only.  (Non-durable trees buffer nothing in _wal_pending, so
            # skipping the hook phase loses no records.)
            for j, member in members.items():
                self.shards[j].txn.finish_commit(member)
            if self.obs is not None:
                if touched:
                    self._m_commit_cross.inc()
                else:
                    self._m_commit_readonly.inc()
        self.coordinator.finish(txn.id, committed=True)
        txn.state = TxnState.COMMITTED

    def abort(self, txn: ShardTransaction) -> None:
        if not txn.is_active:
            raise TransactionStateError(
                f"transaction {txn.id} is not active")
        for k, member in txn.members.items():
            self.shards[k].txn.abort(member)
        self.coordinator.finish(txn.id, committed=False)
        txn.state = TxnState.ABORTED
        if self.obs is not None:
            self._m_aborts.inc()

    # -------------------------------------------------------------------- DML

    def insert(self, txn: ShardTransaction, table: str,
               row: Sequence[object]) -> tuple[int, RecordID]:
        validated = self.shards[0].catalog.table(table).schema.validate_row(
            tuple(row))
        k = self._owner_of_row(table, validated)
        txn.touch(k)
        return self.shards[k].insert(txn.on(k), table, validated)

    def update_by_key(self, txn: ShardTransaction, index_name: str,
                      key: Key, updates: dict[str, object]) -> int:
        """UPDATE all visible rows matching ``key``, each as
        :meth:`update_hit` would."""
        info = self._index(index_name)
        # gather every hit BEFORE mutating: a cross-shard move lands the
        # row (own writes are visible) on a shard this loop may not have
        # scanned yet, and must not be updated twice
        gathered: list[tuple[int, "RowHit"]] = []
        for k in self._point_shards(info, key):
            db = self.shards[k]
            gathered.extend((k, hit) for hit in self._owned(
                k, db.executor.lookup(
                    txn.on(k), db.catalog.index(index_name), key),
                info.table))
        for k, hit in gathered:
            self.update_hit(txn, info.table, k, hit, updates)
        return len(gathered)

    def delete_by_key(self, txn: ShardTransaction, index_name: str,
                      key: Key) -> int:
        info = self._index(index_name)
        count = 0
        for k in self._point_shards(info, key):
            db = self.shards[k]
            hits = self._owned(k, db.executor.lookup(
                txn.on(k), db.catalog.index(index_name), key), info.table)
            for hit in hits:
                txn.touch(k)
                db.delete_row(txn.on(k), info.table, hit.rid, hit.version)
                count += 1
        return count

    def update_hit(self, txn: ShardTransaction, table: str, shard: int,
                   hit: "RowHit", updates: dict[str, object]) -> None:
        """UPDATE one previously-fetched row (hit-handle DML, the TPC-C
        access pattern).  A row whose shard key changes moves (delete +
        insert inside the same transaction) even when the new key maps to
        the same shard — version chains must stay single-shard-key or
        rebalancing could strand part of a chain's history on a shard
        that no longer owns it (see
        :func:`repro.shard.rebalance._chain_shard_key`)."""
        schema = self.shards[0].catalog.table(table).schema
        positions = self.shard_key_positions(table)
        db = self.shards[shard]
        new_row = schema.apply_updates(hit.version.data, updates)
        old_shard_key = tuple(hit.version.data[p] for p in positions)
        new_shard_key = tuple(new_row[p] for p in positions)
        dst = self.partitioner.shard_of(new_shard_key)
        txn.touch(shard)
        if dst == shard and new_shard_key == old_shard_key:
            db.update_row(txn.on(shard), table, hit.rid, hit.version,
                          updates)
        else:
            txn.touch(dst)
            db.delete_row(txn.on(shard), table, hit.rid, hit.version)
            self.shards[dst].insert(txn.on(dst), table, new_row)

    def delete_hit(self, txn: ShardTransaction, table: str, shard: int,
                   hit: "RowHit") -> None:
        """DELETE one previously-fetched row on its shard."""
        txn.touch(shard)
        self.shards[shard].delete_row(txn.on(shard), table, hit.rid,
                                      hit.version)

    # ------------------------------------------------------------------ reads

    def select(self, txn: ShardTransaction, index_name: str,
               key: Key) -> list[Row]:
        """Point lookup: the owned rows, no handle built."""
        info = self._index(index_name)

        def lookup(k: int) -> list[Row]:
            return self.shards[k].select(txn.on(k), index_name, key)

        rows: list[Row] = []
        for k, run in self._point_reads(info, key, lookup):
            rows += compress(run, self.owned_flags(k, info.table, run))
        return rows

    def select_hits_tagged(self, txn: ShardTransaction, index_name: str,
                           key: Key) -> "list[tuple[int, RowHit]]":
        """Point lookup returning ``(shard, hit)`` pairs — the shard tag
        makes the hit a valid handle for :meth:`update_hit` /
        :meth:`delete_hit`."""
        info = self._index(index_name)

        def lookup(k: int) -> "list[RowHit]":
            db = self.shards[k]
            return db.executor.lookup(txn.on(k),
                                      db.catalog.index(index_name), key)

        return [(k, hit) for k, run in self._point_reads(info, key, lookup)
                for hit in self._owned(k, run, info.table)]

    def _point_reads(self, info: "IndexInfo", key: Key,
                     read: Callable[[int], list[Any]]
                     ) -> list[tuple[int, list[Any]]]:
        """``(shard, read(shard))`` for every shard a point key can live
        on, counted as one point query."""
        shards = self._point_shards(info, key)
        runs = [(k, read(k)) for k in shards]
        if self.obs is not None:
            self._m_point.inc()
            self._m_fanout.inc(len(shards))
        return runs

    def range_select(self, txn: ShardTransaction, index_name: str,
                     lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True, hi_incl: bool = True) -> list[Row]:
        """Range scan in global index-key order: the owned rows, no
        handle built (:meth:`range_hits_tagged` says how legs combine)."""
        info = self._index(index_name)
        plan = self.plan_scan(index_name, lo, hi, lo_incl=lo_incl,
                              hi_incl=hi_incl)

        def scan(leg: ScanLeg) -> list[Row]:
            return self.shards[leg.shard].range_select(
                txn.on(leg.shard), index_name, leg.lo, leg.hi,
                lo_incl=leg.lo_incl, hi_incl=leg.hi_incl)

        rows: list[Row] = []
        for leg, run in zip(plan.legs, self._leg_reads(plan, scan)):
            rows += compress(run, self.owned_flags(leg.shard, info.table,
                                                   run))
        if plan.name == "scatter-merge" and len(plan.legs) > 1:
            # the legs are in shard order, so a stable sort on the key
            # is the (index key tuple, shard) merge
            rows.sort(key=itemgetter(*info.positions))
        return rows

    def range_hits_tagged(self, txn: ShardTransaction, index_name: str,
                          lo: Key | None, hi: Key | None, *,
                          lo_incl: bool = True, hi_incl: bool = True
                          ) -> "list[tuple[int, RowHit]]":
        """Range scan in global index-key order, each hit tagged with its
        shard (a valid :meth:`update_hit` handle).

        :meth:`plan_scan` names the shards to ask.  A single owner's run
        is the answer; scatter legs merge on ``(index key tuple, shard)``
        — every shard's run already arrives in key-tuple order, the order
        its tree keeps (stable: equal keys keep shard order).
        """
        info = self._index(index_name)
        plan = self.plan_scan(index_name, lo, hi, lo_incl=lo_incl,
                              hi_incl=hi_incl)

        def scan(leg: ScanLeg) -> "list[RowHit]":
            db = self.shards[leg.shard]
            return db.executor.scan(txn.on(leg.shard),
                                    db.catalog.index(index_name),
                                    leg.lo, leg.hi, lo_incl=leg.lo_incl,
                                    hi_incl=leg.hi_incl)

        out = [(leg.shard, hit)
               for leg, hits in zip(plan.legs, self._leg_reads(plan, scan))
               for hit in self._owned(leg.shard, hits, info.table)]
        if plan.name == "scatter-merge" and len(plan.legs) > 1:
            key_of = itemgetter(*info.positions)
            out.sort(key=lambda item: (key_of(item[1].version.data),
                                       item[0]))
        return out

    def _leg_reads(self, plan: ScanPlan,
                   read: Callable[[ScanLeg], list[Any]]) -> list[list[Any]]:
        """``read(leg)`` for every leg of ``plan``, counted as one range
        query."""
        runs = [read(leg) for leg in plan.legs]
        if self.obs is not None:
            self._m_scan.inc()
            self._m_fanout.inc(len(plan.legs))
            if plan.name == "single-slot":
                self._m_slot_routed.inc()
        return runs

    def seq_scan(self, txn: ShardTransaction, table: str) -> list[Row]:
        """Full-table scan, shard by shard (shard order, not key order).
        Always filtered: a table store keeps the chains every completed
        rebalance moved away."""
        rows: list[Row] = []
        for k, db in enumerate(self.shards):
            shard_rows = [row for _rid, row in
                          db.catalog.table(table).store.scan_visible(
                              txn.on(k))]
            rows += compress(shard_rows,
                             self._owner_flags(k, table, shard_rows))
        return rows

    def pull_index_slices(self, txn: ShardTransaction, index_name: str,
                          legs: Sequence[ScanLeg],
                          want: int) -> list[IndexSlice]:
        """One bounded index-only cursor run per leg
        (:meth:`~repro.engine.executor.Executor.pull_slice`); the pulls
        are counted in ``shard.scan.hits_pulled`` /
        ``shard.scan.runs_pulled``."""
        gathered = []
        for leg in legs:
            db = self.shards[leg.shard]
            gathered.append(db.executor.pull_slice(
                txn.on(leg.shard), db.catalog.index(index_name), leg, want))
        if self.obs is not None:
            self._m_hits_pulled.inc(sum(g[2] for g in gathered))
            self._m_runs_pulled.inc(sum(g[3] for g in gathered))
        return [(hits, resume) for hits, resume, _n, _r in gathered]

    def fetch_rows(self, txn: ShardTransaction, index_name: str,
                   hits: "Sequence[tuple[int, SearchHit]]", *,
                   merged: bool) -> list[Row]:
        """The owned rows of pulled ``(shard, hit)`` pairs, in the order
        given.  ``merged``: the scan's plan merges more than one leg.
        Hits from one shard — always so for a one-leg plan — go straight
        to that shard's fetch; otherwise each shard fetches its own hits
        in one batch and the rows are re-interleaved.  The ownership
        filter runs while :attr:`index_residue` is raised."""
        if not hits:
            return []
        table = self._index(index_name).table
        filtering = self.index_residue
        # the router's own work on a row — two comparisons of a merge of
        # more than one leg, the ownership hash while it runs — is host
        # CPU no shard's engine saw: every shard's clock pays it, as for
        # any host-level overhead (DESIGN.md §9.10)
        for db in self.shards:
            cost = db.clock.cost
            per_row = ((2 * cost.compare if merged else 0.0)
                       + (cost.hash_op if filtering else 0.0))
            if per_row:
                db.clock.advance(len(hits) * per_row)
        shard = hits[0][0]
        if not merged or all(pair[0] == shard for pair in hits):
            rows = self.shards[shard].fetch_rows(txn.on(shard), index_name,
                                                 hits, merged=False)
            if not filtering:
                return rows
            return list(compress(rows, self._owner_flags(shard, table,
                                                         rows)))
        by_shard: "dict[int, list[tuple[int, SearchHit]]]" = {}
        for pair in hits:
            by_shard.setdefault(pair[0], []).append(pair)
        # a shard's rows are 1:1 with its hits on heap/SIAS stores (the
        # only kinds sharded tables allow); the ownership filter flags
        # residue rows without compacting, so the rows stay aligned
        fetched: "dict[int, Iterator[tuple[Row, bool]]]" = {}
        for shard, pairs in by_shard.items():
            rows = self.shards[shard].fetch_rows(txn.on(shard), index_name,
                                                 pairs, merged=False)
            fetched[shard] = zip(rows, self.owned_flags(shard, table, rows))
        out: list[Row] = []
        for shard, _hit in hits:
            row, owned = next(fetched[shard])
            if owned:
                out.append(row)
        return out

    # ------------------------------------------------------------ maintenance

    def flush_all(self) -> None:
        for db in self.shards:
            db.flush_all()

    def vacuum(self, table: str) -> "list[VacuumResult]":
        """Vacuum the table on every shard; per-shard results."""
        return [db.vacuum(table) for db in self.shards]

    def bulk_load(self, table: str, rows: Iterable[Sequence[object]], *,
                  rows_per_txn: int = 5000) -> int:
        """Shard-aware bulk load: validate the rows and deal the slots
        they fall in to shards by load (:meth:`_place`), then partition
        them by shard key and stream each shard's slice through its own
        single-shard transactions — every commit takes the one-fsync
        fast path, no row ever pays router fan-out or 2PC.  Relative row
        order is preserved within each shard.  Returns the row count."""
        if rows_per_txn < 1:
            raise ConfigError(f"rows_per_txn must be >= 1: {rows_per_txn}")
        schema = self.shards[0].catalog.table(table).schema
        positions = self.shard_key_positions(table)
        slot_of = self.partitioner.slot_of
        validated = [schema.validate_row(tuple(row)) for row in rows]
        slots = [slot_of(tuple(row[p] for p in positions))
                 for row in validated]
        self._place(Counter(slots))
        owners = self.partitioner.owners
        buckets: list[list[Row]] = [[] for _ in self.shards]
        for row, slot in zip(validated, slots):
            buckets[owners[slot]].append(row)
        total = 0
        for k, bucket in enumerate(buckets):
            db = self.shards[k]
            for start in range(0, len(bucket), rows_per_txn):
                chunk = bucket[start:start + rows_per_txn]
                txn = self.begin()
                txn.touch(k)
                for validated in chunk:
                    db.insert(txn.on(k), table, validated)
                self.commit(txn)
                total += len(chunk)
        return total

    def _place(self, incoming: Counter[int]) -> None:
        """Deal the slots a bulk load is about to fill (``incoming``:
        slot -> row count) to shards by rows, before the rows land.

        The router's time is the slowest shard's (:attr:`sim_now`), so
        the busiest shard sets throughput; hash luck alone can stack a
        few heavy shard keys (TPC-C's warehouses) on one shard.  Heaviest
        slot first, each slot goes to the least-loaded shard counting
        the rows already loaded (ties keep the current owner, then take
        the lowest shard id).  A changed owner table is installed by one
        :meth:`rebalance`, which moves the rows already living in the
        re-owned slots.  Without quiescence the layout stays as it is;
        the ledger counts the rows either way."""
        ledger = self._slot_rows
        owners = list(self.partitioner.owners)
        load = [0] * len(self.shards)
        for slot, rows in enumerate(ledger):
            load[owners[slot]] += rows
        for slot, rows in sorted(incoming.items(),
                                 key=lambda item: (-item[1], item[0])):
            owner = owners[slot]
            load[owner] -= ledger[slot]
            dst = min(range(len(load)),
                      key=lambda k: (load[k], k != owner, k))
            ledger[slot] += rows
            load[dst] += ledger[slot]
            owners[slot] = dst
        if (tuple(owners) != self.partitioner.owners
                and not_quiescent(self) is None):
            self.rebalance(HashPartitioner(len(self.shards), owners,
                                           self.partitioner.slots))

    def rebalance(self, new_partitioner: HashPartitioner) -> JSONDict:
        """Install a new shard layout, moving records and their version
        history between shards (DESIGN.md §16.4)."""
        return rebalance(self, new_partitioner)

    def move_slot(self, slot: int, dst: int) -> JSONDict:
        """Give virtual slot ``slot`` to shard ``dst``."""
        return self.rebalance(self.partitioner.move_slot(slot, dst))

    # --------------------------------------------------------------- serving

    def serve(self, config: "ServeConfig | None" = None) -> "ShardServer":
        """Open a multi-session server over the router (DESIGN.md §16.6)."""
        from ..serve.shard_server import ShardServer
        return ShardServer(self, config)

    # --------------------------------------------------------------- recovery

    @classmethod
    def recover(cls, crashed: "ShardedDatabase") -> "ShardedDatabase":
        """Restart the whole topology after a crash of any subset of it.

        Every shard's durable state is read once; the *union* of all
        commit evidence — any shard's COMMIT marker or manifest inference,
        the last agent's marker included — and one txid floor restore the
        coordinator's horizon, once (its layout comes from its own log).
        Each shard recovers from its own state around that one horizon,
        so a cross-shard transaction is visible on all shards or on none,
        at every historical snapshot (§16.5).
        """
        if not crashed.config.durability:
            raise RecoveryError(
                "cannot recover a ShardedDatabase created with "
                "durability=False")
        assert crashed.coordinator_file is not None
        assert crashed.coordinator_device is not None
        states = [db.reboot_and_read() for db in crashed.shards]
        committed = {txid for durable in states for txid in durable.committed}
        crashed.coordinator_device.reboot()
        coordinator = ShardCoordinator.recover(
            crashed.coordinator_file, clock=crashed.clock, obs=crashed.obs)
        coordinator.horizon.restore(
            max([crashed.coordinator.next_txid]
                + [durable.next_txid for durable in states]), committed)

        router = cls.__new__(cls)
        router.config = crashed.config
        router.shard_config = crashed.shard_config
        router.clock = crashed.clock
        router.trace = crashed.trace
        router.obs = crashed.obs
        router.coordinator = coordinator
        router.coordinator_device = crashed.coordinator_device
        router.coordinator_file = crashed.coordinator_file
        router.shards = [
            Database.recover(db, durable=durable,
                             horizon=coordinator.horizon)
            for db, durable in zip(crashed.shards, states)]
        router._tables = dict(crashed._tables)
        router._key_offsets = dict(crashed._key_offsets)
        router._slot_rows = list(crashed._slot_rows)
        router.index_residue = True
        router._bind_metrics()
        return router

    # ---------------------------------------------------------- observability

    def explain_scan(self, txn: ShardTransaction, index_name: str,
                     lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> JSONDict:
        """Range-scan profile: the :meth:`plan_scan` plan a materialising
        range read AND a sliced ``batch_scan`` over these bounds execute
        (``legs`` = what each owner is asked) + per-shard profiles."""
        self._require_obs()
        plan = self.plan_scan(index_name, lo, hi, lo_incl=lo_incl,
                              hi_incl=hi_incl)
        return {
            "query": {"index": index_name, "lo": _bound_list(lo),
                      "hi": _bound_list(hi)},
            "routing": {"plan": plan.name, "fanout": len(plan.legs),
                        "shards": plan.shards,
                        "legs": [{"shard": leg.shard,
                                  "lo": _bound_list(leg.lo),
                                  "hi": _bound_list(leg.hi)}
                                 for leg in plan.legs]},
            "per_shard": {k: profile_query(self.shards[k], txn.on(k),
                                           index_name, lo=lo, hi=hi,
                                           lo_incl=lo_incl, hi_incl=hi_incl)
                          for k in plan.shards},
        }

    def metrics_snapshot(self) -> JSONDict:
        """Router-level ``shard.*`` metrics plus every shard's registry."""
        return {
            "router": self._require_obs().registry.export(),
            "shards": [db.metrics_snapshot() for db in self.shards],
        }

    def stats(self) -> JSONDict:
        return {
            "shards": len(self.shards),
            "sim_time_seconds": self.sim_now,
            "coordinator": {
                "next_txid": self.coordinator.next_txid,
                "active": self.coordinator.active_count,
                "decisions": len(self.coordinator.decisions),
            },
            "per_shard": [db.stats() for db in self.shards],
        }

    def _require_obs(self) -> Observability:
        if self.obs is None:
            raise ConfigError(
                "observability is disabled; construct the ShardedDatabase "
                "with EngineConfig(obs=ObsConfig(enabled=True))")
        return self.obs

    # ---------------------------------------------------------------- routing

    def shard_key_positions(self, table: str) -> tuple[int, ...]:
        positions = self._tables.get(table)
        if positions is None:
            raise CatalogError(f"no such sharded table {table!r}")
        return positions

    def _owner_of_row(self, table: str, row: Row) -> int:
        positions = self.shard_key_positions(table)
        return self.partitioner.shard_of(tuple(row[p] for p in positions))

    def _index(self, index_name: str) -> "IndexInfo":
        return self.shards[0].catalog.index(index_name)

    def plan_scan(self, index_name: str, lo: Key | None, hi: Key | None,
                  *, lo_incl: bool = True,
                  hi_incl: bool = True) -> ScanPlan:
        """THE routing decision for a range read — executed by
        :meth:`range_hits_tagged` and the sliced scan, reported by
        :meth:`explain_scan`: ask a shard only if it can own a matching
        row.  Whatever comes back still passes the ownership filter."""
        info = self._index(index_name)
        owner = self._pinned_owner(info, lo, hi)
        if owner is not None:
            return ScanPlan("single-slot",
                            (ScanLeg(owner, lo, lo_incl, hi, hi_incl),),
                            info.index_only)
        return ScanPlan("scatter-merge", tuple(
            ScanLeg(k, lo, lo_incl, hi, hi_incl)
            for k in range(len(self.shards))), info.index_only)

    def _pinned_owner(self, info: "IndexInfo", lo: Key | None,
                      hi: Key | None) -> int | None:
        """The one shard that can own a row whose index key lies between
        ``lo`` and ``hi`` (either bound inclusive or not), or None.

        When the index key covers every shard-key column and the two
        bounds agree component-wise on a prefix holding all of them
        (``(w, d) … (w, d, TOP)``; a point key is ``lo == hi``), every key
        in between extends that prefix — tuple order is lexicographic —
        so every matching row carries the same shard key and has exactly
        one owner."""
        offsets = self._key_offsets[info.name]
        if offsets is None or lo is None or hi is None:
            return None
        need = max(offsets, default=-1) + 1
        if len(lo) < need or len(hi) < need or lo[:need] != hi[:need]:
            return None
        return self.partitioner.shard_of(tuple(lo[c] for c in offsets))

    def _point_shards(self, info: "IndexInfo", key: Key) -> list[int]:
        """Shards a point key (read or keyed DML) is sent to."""
        owner = self._pinned_owner(info, key, key)
        if owner is not None:
            return [owner]
        return list(range(len(self.shards)))

    def owned_flags(self, shard: int, table: str,
                    rows: Sequence[Row]) -> list[bool]:
        """The ownership filter of index reads, one flag per row: all
        True, nothing hashed, while no index tree can hold residue
        (:attr:`index_residue` down); else :meth:`_owner_flags`.  Flags
        keep positions, so a caller compacts (``itertools.compress``) or
        keeps per-shard streams aligned, as it needs."""
        if not self.index_residue:
            return [True] * len(rows)
        return self._owner_flags(shard, table, rows)

    def _owner_flags(self, shard: int, table: str,
                     rows: Iterable[Row]) -> list[bool]:
        """THE ownership filter: does each row's shard key map to
        ``shard`` under the CURRENT layout?  False marks residue left by
        a historical or in-flight rebalance (counted in
        ``shard.hits.residue_filtered``); the authoritative copy answers
        from the owning shard."""
        positions = self.shard_key_positions(table)
        shard_of = self.partitioner.shard_of
        flags = [shard_of(tuple(row[p] for p in positions)) == shard
                 for row in rows]
        if self.obs is not None and False in flags:
            self._m_residue.inc(flags.count(False))
        return flags

    def _owned(self, shard: int, hits: "list[RowHit]",
               table: str) -> "list[RowHit]":
        """``hits`` minus ownership-filter residue — the filter of the
        handle paths; a rows path filters its rows directly."""
        if not self.index_residue:
            return hits
        return list(compress(hits, self._owner_flags(
            shard, table, [hit.version.data for hit in hits])))

    def __repr__(self) -> str:
        return (f"ShardedDatabase(shards={len(self.shards)}, "
                f"tables={len(self._tables)})")


def _bound_list(bound: Key | None) -> list[object] | None:
    return list(bound) if bound is not None else None

