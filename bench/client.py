"""The benchmark's client side: backend proxy, counters, power cut.

:class:`BenchBackend` wraps any ``WorkloadBackend`` so the unmodified
seeded runners (``YCSBRunner``, ``TPCCRunner``, ``CHBenchmark``) drive the
program while the proxy

* assigns a request id per transaction and stamps every op completion
  with wall and simulated time (:class:`Recorder`),
* adds up the user row bytes written,
* injects ``max_partitions`` into every MV-PBT ``create_index`` so
  eviction and merge cycle within a run.

:func:`snapshot` reads the counters the program already exposes;
:func:`power_cut_and_recover` drives crash recovery and
:func:`index_digests` fingerprints what every index returns.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns, process_time
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.database import Database
from repro.shard.router import ShardedDatabase
from repro.workloads.backend import (WorkloadBackend, WorkloadHit,
                                     WorkloadTxn)

if TYPE_CHECKING:
    from repro.sim.device import SimulatedDevice
    from repro.types import Key, Row

    from .trace import Tracer

#: every MV-PBT index is created with this partition bound
MAX_PARTITIONS = 8

Target = Database | ShardedDatabase


def row_bytes(row: Sequence[object]) -> int:
    """User bytes of one row: string length, 8 for a number."""
    return sum(len(v) if isinstance(v, str) else 8 for v in row)


def databases(target: Target) -> list[Database]:
    return target.shards if isinstance(target, ShardedDatabase) else [target]


def devices(target: Target) -> "list[SimulatedDevice]":
    """Every shard's device plus the coordinator's."""
    found = [db.device for db in databases(target)]
    if (isinstance(target, ShardedDatabase)
            and target.coordinator_device is not None):
        found.append(target.coordinator_device)
    return found


class Recorder:
    """Per-op completion stamps and user-byte totals of one pass.

    An op's latency is the time since the previous completion: with one
    closed-loop client and no think time that is its service time plus
    whatever the loop did in between (op generation; in simulated time,
    nothing).
    """

    def __init__(self, backend: WorkloadBackend, target: Target) -> None:
        self._backend = backend
        self._coordinator = (target.coordinator
                             if isinstance(target, ShardedDatabase) else None)
        self._manager = None if self._coordinator else target.txn
        #: set for the timed phase of a traced pass only
        self.tracer: "Tracer | None" = None
        self._roots: dict[str, int] = {}
        self._root = -1
        self.requests = 0
        self.reset()

    def reset(self) -> None:
        self.done_wall_ns = array("q")
        self.done_sim_s = array("d")
        self.user_bytes = 0
        self.active_max = 0

    @property
    def ops(self) -> int:
        return len(self.done_wall_ns)

    def begin_op(self, kind: str = "txn") -> None:
        self.requests += 1
        active = (self._coordinator.active_count if self._coordinator
                  else len(self._manager.active_transactions))
        if active >= self.active_max:
            self.active_max = active + 1
        tracer = self.tracer
        if tracer is not None:
            nid = self._roots.get(kind)
            if nid is None:
                nid = self._roots[kind] = tracer.root_name(f"op:{kind}")
            self._root = tracer.open_root(nid, self.requests)

    def end_op(self) -> None:
        if self.tracer is not None:
            self.tracer.close_root(self._root)
        self.done_sim_s.append(self._backend.sim_now)
        self.done_wall_ns.append(perf_counter_ns())


class BenchTxn(WorkloadTxn):
    """One op: delegates to the real transaction, closes the op at
    commit / abort."""

    def __init__(self, inner: WorkloadTxn, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    @property
    def is_active(self) -> bool:
        return self._inner.is_active

    def commit(self) -> None:
        self._inner.commit()
        self._recorder.end_op()

    def abort(self) -> None:
        self._inner.abort()
        self._recorder.end_op()

    def insert(self, table: str, row: Sequence[object]) -> None:
        self._recorder.user_bytes += row_bytes(row)
        self._inner.insert(table, row)

    def update(self, table: str, hit: WorkloadHit,
               updates: dict[str, object]) -> None:
        # every update here keeps the row's size (numbers, or a string of
        # the same length), so the old row's size is the new row's
        self._recorder.user_bytes += row_bytes(hit.row)
        self._inner.update(table, hit, updates)

    def delete(self, table: str, hit: WorkloadHit) -> None:
        self._inner.delete(table, hit)

    def select(self, index: str, key: "Key") -> "list[Row]":
        return self._inner.select(index, key)

    def select_hits(self, index: str, key: "Key") -> list[WorkloadHit]:
        return self._inner.select_hits(index, key)

    def range_select(self, index: str, lo: "Key | None", hi: "Key | None",
                     *, lo_incl: bool = True,
                     hi_incl: bool = True) -> "list[Row]":
        return self._inner.range_select(index, lo, hi, lo_incl=lo_incl,
                                        hi_incl=hi_incl)

    def range_hits(self, index: str, lo: "Key | None", hi: "Key | None", *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> list[WorkloadHit]:
        return self._inner.range_hits(index, lo, hi, lo_incl=lo_incl,
                                      hi_incl=hi_incl)

    def scan_limit(self, index: str, lo: "Key | None",
                   limit: int) -> "list[Row]":
        return self._inner.scan_limit(index, lo, limit)

    def analytic_rows(self, index: str, lo: "Key | None",
                      hi: "Key | None") -> "list[Row]":
        return self._inner.analytic_rows(index, lo, hi)


class BenchBackend(WorkloadBackend):
    """Proxy over a real backend; see the module docstring."""

    def __init__(self, inner: WorkloadBackend, target: Target) -> None:
        self.inner = inner
        self.name = inner.name
        self.recorder = Recorder(inner, target)
        #: rows handed to bulk_insert, per table (the YCSB oracle's start)
        self.loaded: dict[str, list[Sequence[object]]] = {}

    def create_table(self, name: str, columns: Sequence[tuple[str, str]],
                     storage: str = "sias", *,
                     shard_key: Sequence[str] | None = None) -> None:
        self.inner.create_table(name, columns, storage, shard_key=shard_key)

    def create_index(self, name: str, table: str, columns: Sequence[str], *,
                     kind: str = "mvpbt", unique: bool = False,
                     reference: str = "physical",
                     **options: object) -> None:
        if kind == "mvpbt":
            options.setdefault("max_partitions", MAX_PARTITIONS)
        self.inner.create_index(name, table, columns, kind=kind,
                                unique=unique, reference=reference,
                                **options)

    def begin(self) -> WorkloadTxn:
        self.recorder.begin_op()
        return BenchTxn(self.inner.begin(), self.recorder)

    def begin_held(self) -> WorkloadTxn:
        """A snapshot held open across other ops (CH's analytic
        transaction): not an op itself, so neither stamped nor wrapped."""
        return self.inner.begin()

    @property
    def sim_now(self) -> float:
        return self.inner.sim_now

    @property
    def shard_count(self) -> int:
        return self.inner.shard_count

    def bulk_insert(self, table: str, rows: Sequence[Sequence[object]], *,
                    rows_per_txn: int = 5000) -> int:
        self.loaded.setdefault(table, []).extend(rows)
        return self.inner.bulk_insert(table, rows, rows_per_txn=rows_per_txn)

    def vacuum(self, table: str) -> None:
        self.inner.vacuum(table)

    def advance_clock(self, seconds: float) -> None:
        self.inner.advance_clock(seconds)

    def flush_all(self) -> None:
        self.inner.flush_all()

    def dump_table(self, table: str) -> "list[Row]":
        return self.inner.dump_table(table)

    def close(self) -> None:
        self.inner.close()


# ---------------------------------------------------------------- counters

def snapshot(target: Target, scheduler_ticks: int = 0) -> dict[str, float]:
    """Every counter the per-layer ledger reads, summed over all shards
    and devices, from the program's own public statistics."""
    dbs = databases(target)
    out: dict[str, float] = dict.fromkeys((
        "dev.reads", "dev.writes", "dev.seq_writes", "dev.bytes_read",
        "dev.bytes_written", "dev.busy_s", "pool.requests", "pool.hits",
        "pool.evictions", "partition_buffer.evictions", "wal.appends",
        "wal.bytes_written", "manifest.flips", "manifest.bytes_written",
        "mvpbt.gc_purged"), 0)
    mvpbt_fields = ("searches", "scans", "hits_returned", "records_checked",
                    "partitions_skipped_bloom", "evictions", "merges",
                    "bytes_ingested", "bytes_written", "pages_batch_decoded",
                    "pages_skipped_zonemap", "pages_skipped_mints")
    out.update(dict.fromkeys((f"mvpbt.{f}" for f in mvpbt_fields), 0))
    logs = [db.durability.wal for db in dbs if db.durability is not None]
    if isinstance(target, ShardedDatabase):
        if target.coordinator.log is not None:
            logs.append(target.coordinator.log)
        out["coordinator.decisions"] = len(target.coordinator.decisions)
    else:
        out["coordinator.decisions"] = 0
    for device in devices(target):
        stats = device.stats
        out["dev.reads"] += stats.reads
        out["dev.writes"] += stats.writes
        out["dev.seq_writes"] += stats.seq_writes
        out["dev.bytes_read"] += stats.bytes_read
        out["dev.bytes_written"] += stats.bytes_written
        out["dev.busy_s"] += stats.busy_time
    for log in logs:
        out["wal.appends"] += log.appends
        out["wal.bytes_written"] += log.pages_written * log.file.page_size
    for db in dbs:
        pool = db.pool.total_stats()
        out["pool.requests"] += pool.requests
        out["pool.hits"] += pool.hits
        out["pool.evictions"] += db.pool.evictions
        out["partition_buffer.evictions"] += db.partition_buffer.evictions
        if db.durability is not None and db.manifest_file is not None:
            out["manifest.flips"] += db.durability.manifest.flips
            out["manifest.bytes_written"] += (
                db.manifest_file.physical_writes
                * db.manifest_file.page_size)
        for info in db.catalog.indexes:
            if not info.is_mvpbt:
                continue
            tree = info.mvpbt
            for field in mvpbt_fields:
                out[f"mvpbt.{field}"] += getattr(tree.stats, field)
            out["mvpbt.gc_purged"] += (tree.gc_stats.purged_page_level
                                       + tree.gc_stats.purged_eviction)
    # every shard's manager adopts every global transaction
    out["txn.committed"] = dbs[0].txn.committed_count
    out["txn.aborted"] = dbs[0].txn.aborted_count
    out["scheduler.ticks"] = scheduler_ticks
    return out


def gauges(target: Target) -> dict[str, Any]:
    """End-of-phase levels (not deltas)."""
    return {
        "allocated_bytes": sum(d.allocated_bytes for d in devices(target)),
        "partitions_end": sum(info.mvpbt.partition_count
                              for db in databases(target)
                              for info in db.catalog.indexes
                              if info.is_mvpbt),
    }


def version_count(target: Target) -> int:
    """Stored tuple versions over all tables (reads every table page)."""
    return sum(1 for db in databases(target) for info in db.catalog.tables
               for _ in info.store.scan_versions())


def obs_counters(target: Target) -> dict[str, float]:
    """The ``ObsConfig(enabled=True)`` registries' counters, summed."""
    registries = [db.obs.registry for db in databases(target)
                  if db.obs is not None]
    if isinstance(target, ShardedDatabase) and target.obs is not None:
        registries.append(target.obs.registry)
    totals: dict[str, float] = {}
    for registry in registries:
        for name, value in registry.export().get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


# ------------------------------------------------------- crash + recovery

def index_digests(target: Target) -> dict[str, str]:
    """SHA-256 of every MV-PBT index's full range scan under a fresh
    snapshot, per shard — what a reader would get back."""
    digests = {}
    # one transaction from the top: a shard-local begin() would take a
    # txid the coordinator does not know about
    txn = target.begin()
    try:
        for k, db in enumerate(databases(target)):
            member = txn.on(k) if isinstance(target, ShardedDatabase) else txn
            for info in db.catalog.indexes:
                if not info.is_mvpbt:
                    continue
                digest = hashlib.sha256()
                for hit in info.mvpbt.range_scan(member, None, None):
                    digest.update(repr((hit.key, hit.rid, hit.vid,
                                        hit.ts)).encode())
                digests[f"{k}:{info.name}"] = digest.hexdigest()
    finally:
        txn.commit()
    return digests


def power_cut_and_recover(target: Target) -> tuple[Target, float, float]:
    """Cut power with nothing flushed, restart on the same devices.

    Returns the recovered instance, the simulated seconds recovery took
    and the host CPU seconds it took."""
    sharded = isinstance(target, ShardedDatabase)
    sim0 = target.sim_now if sharded else target.clock.now
    cpu0 = process_time()
    recovered: Target = (ShardedDatabase.recover(target) if sharded
                         else Database.recover(target))
    cpu_s = process_time() - cpu0
    sim1 = recovered.sim_now if sharded else recovered.clock.now
    return recovered, sim1 - sim0, cpu_s


# ------------------------------------------------------------ fingerprint

def fingerprint(root: Path) -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "loadavg_1m_at_start": load1,
        "noisy": load1 > nproc,
        "git_commit": commit,
    }
