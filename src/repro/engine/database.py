"""The engine facade.

A :class:`Database` owns the whole simulated stack — clock, device, buffer
pool, partition buffer, transaction manager, catalog — and exposes DDL, DML
and query entry points.  Index/storage design axes (heap-HOT vs. SIAS,
B⁺-Tree vs. PBT vs. MV-PBT, physical vs. logical references, filters, GC)
are selected per table/index, exactly the configurations the paper compares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..buffer.partition_buffer import PartitionBuffer
from ..buffer.pool import BufferPool
from ..config import EngineConfig
from ..core.records import ReferenceMode
from ..core.tree import MVPBT, SearchHit, tree_metrics
from ..durability.controller import DurabilityController
from ..durability.manifest import ManifestStore
from ..durability.recovery import DurableState, read_durable_state
from ..durability.wal import WriteAheadLog
from ..errors import CatalogError, ConfigError, RecoveryError
from ..index.base import Index
from ..index.btree.tree import BPlusTree
from ..index.pbt import PartitionedBTree
from ..obs.core import Observability, span_or_null
from ..obs.profile import profile_query
from ..sim.clock import SimClock
from ..sim.device import SimulatedDevice
from ..sim.profiles import INTEL_DC_P3600, DeviceProfile
from ..sim.trace import IOTrace
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..table.base import (Chain, TupleVersion, VacuumResult, VersionStore,
                          aborted_run)
from ..table.delta import DeltaTable
from ..table.heap import HeapTable
from ..table.sias import SIASTable
from ..txn.manager import Horizon, TransactionManager
from ..txn.transaction import Replay, Transaction
from .catalog import Catalog, IndexInfo, TableInfo
from .executor import Executor, IndexSlice, RowHit, ScanLeg, ScanPlan
from .schema import Schema
from ..types import JSONDict, Key, Row

if TYPE_CHECKING:
    from ..serve.config import ServeConfig
    from ..serve.server import Server


def _tree_options(tree: MVPBT) -> dict[str, Any]:
    """Structural constructor options of an MV-PBT, for re-creation at
    recovery (the catalog, not this subsystem, is their durable home)."""
    return dict(
        unique=tree.unique, mode=tree.mode,
        use_bloom=tree.use_bloom, enable_gc=tree.enable_gc,
        index_only_visibility=tree.index_only_visibility,
        reconcile=tree.reconcile, first_hit_only=tree.first_hit_only,
        max_partitions=tree.max_partitions,
        merge_fanout=tree.merge_fanout)


class Database:
    """One simulated DBMS instance."""

    def __init__(self, config: EngineConfig | None = None,
                 profile: DeviceProfile = INTEL_DC_P3600) -> None:
        self.config = config if config is not None else EngineConfig()
        #: the engine's one clock; every CPU charge reads its price list
        self.clock = SimClock(cost=self.config.cost)
        self.trace = IOTrace()
        self.device = SimulatedDevice(profile, self.clock, self.trace)
        #: None when observability is disabled — every instrumented call
        #: site guards on that, keeping the disabled overhead a pointer test
        self.obs: Observability | None = None
        if self.config.obs.enabled:
            self.obs = Observability(self.config.obs, self.clock)
            self.obs.attach_device(self.device)
        self.pool = BufferPool(self.config.buffer_pool_pages,
                               clock=self.clock, obs=self.obs)
        self.partition_buffer = PartitionBuffer(
            self.config.partition_buffer_bytes)
        self.txn = TransactionManager(self.clock, obs=self.obs)
        self.catalog = Catalog()
        self.executor = Executor(self)
        self.manifest_file: PageFile | None = None
        self.wal_file: PageFile | None = None
        self.durability: DurabilityController | None = None
        if self.config.durability:
            self.manifest_file = PageFile(
                "meta:manifest", self.device, self.config.page_size,
                self.config.extent_pages)
            self.wal_file = PageFile(
                "meta:wal", self.device, self.config.page_size,
                self.config.extent_pages)
            self.durability = DurabilityController(
                ManifestStore(self.manifest_file,
                              self.config.manifest_slot_pages),
                WriteAheadLog(self.wal_file), self.txn, obs=self.obs)
        self._register_sources()

    # -------------------------------------------------------------------- DDL

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]],
                     storage: str = "sias") -> TableInfo:
        """Create a base table with 'heap' (PG/HOT), 'sias' or 'delta'
        storage."""
        schema = Schema(columns)
        file = PageFile(f"table:{name}", self.device,
                        self.config.page_size, self.config.extent_pages)
        if storage == "heap":
            store: VersionStore = HeapTable(name, file, self.pool)
        elif storage == "sias":
            store = SIASTable(name, file, self.pool)
        elif storage == "delta":
            pool_file = PageFile(f"pool:{name}", self.device,
                                 self.config.page_size,
                                 self.config.extent_pages)
            store = DeltaTable(name, file, pool_file, self.pool)
        else:
            raise CatalogError(f"unknown storage kind {storage!r}")
        info = TableInfo(name=name, schema=schema, store=store, file=file)
        self.catalog.add_table(info)
        return info

    def create_index(self, name: str, table: str,
                     columns: Sequence[str], *,
                     kind: str = "mvpbt",
                     unique: bool = False,
                     reference: str = "physical",
                     **options: object) -> IndexInfo:
        """Create an index.

        ``kind``: 'mvpbt' (the contribution), 'btree' or 'pbt'.
        ``reference``: 'physical' recordIDs or 'logical' VIDs through the
        table's VID map (kept by its store).
        ``options`` are forwarded to the index constructor (e.g. for MV-PBT:
        ``use_bloom``, ``enable_gc``, ``index_only_visibility``,
        ``reconcile``).  With its filters on, an MV-PBT over two or more
        columns also builds prefix bloom filters over all but the last.
        ``unique`` needs an index-only MV-PBT: no other index can tell a
        visible duplicate from a dead version.
        """
        table_info = self.catalog.table(table)
        positions = table_info.schema.positions(columns)
        if unique and not (kind == "mvpbt" and options.get(
                "index_only_visibility", True)):
            raise ConfigError(f"{name}: unique=True needs an index-only "
                              f"MV-PBT")
        mode = ReferenceMode(reference)
        logical = mode is ReferenceMode.LOGICAL
        file = PageFile(f"index:{name}", self.device,
                        self.config.page_size, self.config.extent_pages)
        if kind == "mvpbt":
            index: MVPBT | Index = MVPBT(
                name, file, self.pool, self.partition_buffer, self.txn,
                unique=unique, mode=mode, obs=self.obs,
                **options)  # type: ignore[arg-type]
            if self.durability is not None:
                # register before the build pass so its records are logged
                self.durability.register(index)
        elif kind == "btree":
            index = BPlusTree(name, file, self.pool, **options)  # type: ignore[arg-type]
        elif kind == "pbt":
            index = PartitionedBTree(
                name, file, self.pool, self.partition_buffer,
                clock=self.clock, **options)  # type: ignore[arg-type]
        else:
            raise CatalogError(f"unknown index kind {kind!r}")
        info = IndexInfo(name=name, table=table, columns=list(columns),
                         positions=positions, kind=kind, unique=unique,
                         index=index)
        self.catalog.add_index(info)
        log = self.txn.commit_log
        chains = [chain for chain in table_info.store.chains()
                  if not aborted_run(chain, log)]
        if logical:
            table_info.store.charge_vid_map(self.clock, len(chains))
        if isinstance(index, Index):
            index.store = table_info.store
            index.indirection = logical
        self._build_index(table_info, info, chains)
        return info

    def _build_index(self, table_info: TableInfo, info: IndexInfo,
                     chains: list[Chain]) -> None:
        """Populate a new index by replaying the table's chains, oldest
        version first: each step is the call live maintenance makes for
        it, under the version's own timestamp, so the index holds what
        the same index built first holds."""
        index = info.index
        for chain in chains:
            prev_rid: RecordID | None = None
            prev_key: Key = ()
            for rid, version in chain:
                writer = Replay(version.ts_create)
                if version.is_tombstone:
                    if prev_rid is not None:
                        index.delete(writer, prev_key, prev_rid, version.vid)
                    continue
                key = table_info.schema.extract(version.data, info.positions)
                if prev_rid is None:
                    index.insert(writer, key, rid, version.vid)
                elif key == prev_key:
                    index.update_nonkey(writer, key, rid, prev_rid,
                                        version.vid)
                else:
                    index.update_key(writer, prev_key, key, rid, prev_rid,
                                     version.vid)
                prev_rid, prev_key = rid, key

    # --------------------------------------------------------------- serving

    def serve(self, config: "ServeConfig | None" = None) -> "Server":
        """Open a multi-session :class:`~repro.serve.server.Server` over
        this instance (``config``: a :class:`~repro.serve.ServeConfig`).

        The engine core stays single-caller; the server's fair scheduler
        confines all engine entry to one thread at a time (DESIGN.md §15).
        """
        from ..serve.server import Server
        return Server(self, config)

    # ----------------------------------------------------------- transactions

    def begin(self) -> Transaction:
        return self.txn.begin()

    # -------------------------------------------------------------------- DML

    def insert(self, txn: Transaction, table: str,
               row: Sequence[object]) -> tuple[int, RecordID]:
        """INSERT one row; maintains all indexes.  Returns (vid, rid)."""
        info = self.catalog.table(table)
        row = info.schema.validate_row(row)
        vid, rid = info.store.insert(txn, row)
        for ix in self.catalog.indexes_of(table):
            ix.index.insert(txn, info.schema.extract(row, ix.positions),
                            rid, vid)
        return vid, rid

    def update_row(self, txn: Transaction, table: str, rid: RecordID,
                   version: TupleVersion,
                   updates: dict[str, object]) -> RecordID:
        """UPDATE the tuple whose visible version is (rid, version)."""
        info = self.catalog.table(table)
        new_row = info.schema.apply_updates(version.data, updates)
        info.schema.validate_row(new_row)
        extract = info.schema.extract
        key_pairs = [(ix, extract(version.data, ix.positions),
                      extract(new_row, ix.positions))
                     for ix in self.catalog.indexes_of(table)]
        vid = version.vid
        new_rid = info.store.update(txn, rid, new_row, allow_hot=all(
            old_key == new_key for _ix, old_key, new_key in key_pairs))
        for ix, old_key, new_key in key_pairs:
            if old_key == new_key:
                ix.index.update_nonkey(txn, new_key, new_rid, rid, vid)
            else:
                ix.index.update_key(txn, old_key, new_key, new_rid, rid, vid)
        return new_rid

    def delete_row(self, txn: Transaction, table: str, rid: RecordID,
                   version: TupleVersion) -> RecordID:
        """DELETE the tuple whose visible version is (rid, version)."""
        info = self.catalog.table(table)
        del_rid = info.store.delete(txn, rid)
        for ix in self.catalog.indexes_of(table):
            ix.index.delete(txn, info.schema.extract(version.data,
                                                     ix.positions),
                            rid, version.vid)
        return del_rid

    # ----------------------------------------------------------- by-key DML

    def update_by_key(self, txn: Transaction, index_name: str, key: Key,
                      updates: dict[str, object]) -> int:
        """UPDATE all visible rows matching ``key`` on the named index."""
        ix = self.catalog.index(index_name)
        hits = self.executor.lookup(txn, ix, key)
        for hit in hits:
            self.update_row(txn, ix.table, hit.rid, hit.version, updates)
        return len(hits)

    def delete_by_key(self, txn: Transaction, index_name: str,
                      key: Key) -> int:
        ix = self.catalog.index(index_name)
        hits = self.executor.lookup(txn, ix, key)
        for hit in hits:
            self.delete_row(txn, ix.table, hit.rid, hit.version)
        return len(hits)

    # ----------------------------------------------------------------- reads

    def select(self, txn: Transaction, index_name: str,
               key: Key) -> list[Key]:
        """Visible rows whose index key equals ``key``."""
        ix = self.catalog.index(index_name)
        return self.executor.lookup_rows(txn, ix, key)

    def select_hits(self, txn: Transaction, index_name: str,
                    key: Key) -> list[RowHit]:
        """:meth:`select` as handles for :meth:`update_row` /
        :meth:`delete_row`."""
        ix = self.catalog.index(index_name)
        return self.executor.lookup(txn, ix, key)

    def range_select(self, txn: Transaction, index_name: str,
                     lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Key]:
        ix = self.catalog.index(index_name)
        return self.executor.scan_rows(txn, ix, lo, hi, lo_incl=lo_incl,
                                       hi_incl=hi_incl)

    def range_hits(self, txn: Transaction, index_name: str,
                   lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True, hi_incl: bool = True) -> list[RowHit]:
        """:meth:`range_select` as handles."""
        ix = self.catalog.index(index_name)
        return self.executor.scan(txn, ix, lo, hi,
                                  lo_incl=lo_incl, hi_incl=hi_incl)

    def count_range(self, txn: Transaction, index_name: str,
                    lo: Key | None, hi: Key | None, *,
                    lo_incl: bool = True, hi_incl: bool = True) -> int:
        """COUNT(*) over an index-key range (index-only on MV-PBT)."""
        ix = self.catalog.index(index_name)
        return self.executor.count(txn, ix, lo, hi,
                                   lo_incl=lo_incl, hi_incl=hi_incl)

    def seq_scan(self, txn: Transaction, table: str) -> list[Key]:
        """Full-table scan of visible rows."""
        info = self.catalog.table(table)
        return [row for _rid, row in info.store.scan_visible(txn)]

    # ------------------- the sliced scan's surface, one leg (DESIGN.md §15.1)

    #: what a plan depends on besides the snapshot and own writes: nothing
    #: on one node (the router's layout is its partitioner)
    layout = None
    #: one node's index trees never hold rebalance residue
    index_residue = False

    def plan_scan(self, index_name: str, lo: Key | None, hi: Key | None,
                  *, lo_incl: bool = True,
                  hi_incl: bool = True) -> ScanPlan:
        return ScanPlan("single-node",
                        (ScanLeg(0, lo, lo_incl, hi, hi_incl),),
                        self.catalog.index(index_name).index_only)

    def pull_index_slices(self, txn: Transaction, index_name: str,
                          legs: Sequence[ScanLeg],
                          want: int) -> list[IndexSlice]:
        ix = self.catalog.index(index_name)
        return [self.executor.pull_slice(txn, ix, leg, want)[:2]
                for leg in legs]

    def fetch_rows(self, txn: Transaction, index_name: str,
                   hits: Sequence[tuple[int, SearchHit]], *,
                   merged: bool) -> list[Row]:
        """The rows of pulled ``(shard, hit)`` pairs, in order — fewer on
        delta storage, where a version may not reconstruct.  ``merged``
        prices the router's merge of legs; one node's plan has one."""
        table = self.catalog.table(self.catalog.index(index_name).table)
        return self.executor.fetch_rows(txn, table,
                                        [hit for _shard, hit in hits])

    # ----------------------------------------------------------- maintenance

    def vacuum(self, table: str) -> VacuumResult:
        """Tuple-level GC; then every index purges its entries that no
        surviving version backs (an MV-PBT nothing: partition GC cleans
        it)."""
        info = self.catalog.table(table)
        result = info.store.vacuum(self.txn)
        if result.versions_removed or result.dropped_vids:
            for ix in self.catalog.indexes_of(table):
                ix.index.purge(result, ix.positions)
        return result

    def flush_all(self) -> None:
        """Write back dirty pages and unflushed table tails."""
        for info in self.catalog.tables:
            info.store.flush_tail()
        self.pool.flush()

    # -------------------------------------------------------------- recovery

    def reboot_and_read(self) -> DurableState:
        """Power-cycle this crashed database's device, drop its pool's
        pages of the manifest and the WAL, and read back the durable state
        a restart begins from (the two sequential passes, DESIGN.md
        §11.4)."""
        assert self.manifest_file is not None and self.wal_file is not None
        self.device.reboot()
        self.pool.drop_file(self.manifest_file)
        self.pool.drop_file(self.wal_file)
        return read_durable_state(self.manifest_file, self.wal_file,
                                  self.config.manifest_slot_pages)

    @classmethod
    def recover(cls, crashed: "Database", *,
                durable: DurableState | None = None,
                horizon: Horizon | None = None) -> "Database":
        """Restart after a crash (injected or clean) on the same device.

        ``durable`` is the state to restart from, when the caller has
        already read it with :meth:`reboot_and_read`; otherwise recovery
        reads it itself.  ``horizon`` is the sharded router's, already
        restored from the commit union and txid floor of the whole
        topology (DESIGN.md §16.5), so every shard is read once and the
        history restored once; without it recovery restores the
        transaction history into a horizon of its own.

        The host-DBMS side of the simulation (base tables, catalog,
        version-oblivious indexes) is assumed recovered by the host's own
        WAL, which this model does not simulate — their in-memory state and
        buffer-pool pages are adopted as-is (DESIGN.md §11.5).  MV-PBT
        state is rebuilt honestly from the durable medium: cached pages of
        the manifest, the WAL and every MV-PBT index file are dropped, the
        manifest and log are re-read with two sequential passes, the
        transaction history is restored, and each tree is re-attached from
        manifest metadata with its ``P_N`` replayed from the log.
        """
        if crashed.durability is None:
            raise RecoveryError(
                "cannot recover a database created with durability=False")

        db = cls.__new__(cls)
        db.config = crashed.config
        db.clock = crashed.clock
        db.trace = crashed.trace
        # the registry and tracer survive the restart with the clock: the
        # trace and instruments of the crashed run and the recovery replay
        # land in one continuous stream (the crash did not reset simulated
        # time either); the views re-register below and read the recovered
        # engine
        db.obs = crashed.obs
        db.device = crashed.device
        db.pool = crashed.pool
        db.partition_buffer = PartitionBuffer(
            db.config.partition_buffer_bytes)
        own = horizon or Horizon()
        db.txn = TransactionManager(db.clock, obs=db.obs, horizon=own)
        db.catalog = crashed.catalog
        db.executor = Executor(db)
        db.manifest_file = crashed.manifest_file
        db.wal_file = crashed.wal_file

        mvpbt_infos = [ix for ix in db.catalog.indexes if ix.is_mvpbt]
        for info in mvpbt_infos:
            db.pool.drop_file(info.mvpbt.file)

        with span_or_null(db.obs, "recovery.replay") as span:
            if durable is None:
                durable = crashed.reboot_and_read()
            # the txid allocator is host-recovered alongside the tables (a
            # txn that crashed before its first WAL append is invisible to
            # the durable state, and its id must never be reused); commit
            # status authority stays with the durable state — a txn without
            # a durable COMMIT marker or manifest commit bit recovers as
            # aborted everywhere, tables included
            if own is not horizon:
                own.restore(max(durable.next_txid, crashed.txn.next_txid),
                            durable.committed)
            db.txn.committed_count = len(durable.committed)
            db.durability = DurabilityController(durable.store, durable.wal,
                                                 db.txn, obs=db.obs)

            state_indexes = (durable.state.indexes
                             if durable.state is not None else {})
            for info in mvpbt_infos:
                old = info.mvpbt
                info.index = MVPBT.recover(
                    old.name, old.file, db.pool, db.partition_buffer,
                    db.txn,
                    index_state=state_indexes.get(old.name),
                    wal_records=durable.records.get(old.name),
                    durability=db.durability,
                    obs=db.obs,
                    **_tree_options(old))
            db._register_sources()
            if db.obs is not None:
                replayed = sum(len(records)
                               for records in durable.records.values())
                registry = db.obs.registry
                registry.counter("recovery.replays").inc()
                registry.counter("recovery.wal_records_replayed").inc(
                    replayed)
                span.set(indexes=len(mvpbt_infos), wal_records=replayed)
        return db

    # -------------------------------------------------------- observability

    def explain_scan(self, txn: Transaction, index_name: str,
                     lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> JSONDict:
        """Run a range scan and return its query profile (partitions
        consulted, filter skips, buffer traffic, simulated I/O cost).

        Requires observability (``config.obs.enabled``)."""
        self._require_obs()
        return profile_query(self, txn, index_name, lo=lo, hi=hi,
                             lo_incl=lo_incl, hi_incl=hi_incl)

    def metrics_snapshot(self) -> JSONDict:
        """Export the metrics registry (every view read now)."""
        return self._require_obs().registry.export()

    def _register_sources(self) -> None:
        """The views this facade owns: the clock and the catalog's MV-PBT
        trees (the pool, the device, the manager and the durability
        controller register their own).  A recovered instance registers
        under the same keys and so takes over."""
        if self.obs is None:
            return
        registry = self.obs.registry
        registry.register_source(
            "sim.clock", lambda: {"sim.clock.seconds": self.clock.now})
        registry.register_source("mvpbt", lambda: tree_metrics(
            ix.mvpbt for ix in self.catalog.indexes if ix.is_mvpbt))

    def _require_obs(self) -> Observability:
        if self.obs is None:
            raise ConfigError(
                "observability is disabled; construct the Database with "
                "EngineConfig(obs=ObsConfig(enabled=True))")
        return self.obs

    def stats(self) -> JSONDict:
        """One experiment-reporting snapshot of the whole instance."""
        device = self.device.stats
        pool_total = self.pool.total_stats()
        return {
            "sim_time_seconds": self.clock.now,
            "device": {
                "seq_reads": device.seq_reads,
                "rand_reads": device.rand_reads,
                "seq_writes": device.seq_writes,
                "rand_writes": device.rand_writes,
                "bytes_read": device.bytes_read,
                "bytes_written": device.bytes_written,
            },
            "buffer_pool": {
                "requests": pool_total.requests,
                "hit_rate": pool_total.hit_rate,
                "evictions": self.pool.evictions,
                "dirty_writebacks": self.pool.dirty_writebacks,
            },
            "transactions": {
                "committed": self.txn.committed_count,
                "aborted": self.txn.aborted_count,
                "active": len(self.txn.active_transactions),
            },
            "indexes": {
                ix.name: (ix.index.describe() if isinstance(ix.index, MVPBT)
                          else {"name": ix.name, "kind": ix.kind,
                                "entries": ix.index.entry_count()})
                for ix in self.catalog.indexes
            },
        }

    def __repr__(self) -> str:
        return (f"Database(tables={len(self.catalog.tables)}, "
                f"indexes={len(self.catalog.indexes)}, "
                f"t={self.clock.now:.3f}s)")
