"""The four workloads: what runs, at what size, and why.

Load model, all four: closed loop, ONE client thread, a fixed number of
ops per ``--seconds`` (not a deadline — with one client and no timers
every count and every simulated-clock value then repeats exactly),
generated in-process by the repo's seeded runners.  The timed phase is a
sequence of equal chunks; one chunk of warm-up precedes it.

Flush policy, all four: ``durability=True``, one WAL append per commit,
``manifest_slot_pages=128`` (the default 8-page slot overflows with
``StorageError`` at ~55k keys), every MV-PBT index created with
``max_partitions=8`` and a 16-page partition buffer per engine, so
eviction and merge cycle several times within a run.

The chunk sizes below were set so that ``--seconds 10`` times about ten
seconds of CPU at the commit that defined the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import process_time_ns
from typing import Any

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.obs.config import ObsConfig
from repro.serve.config import ServeConfig
from repro.shard.router import ShardConfig, ShardedDatabase
from repro.workloads.backend import DatabaseBackend, ShardServerBackend
from repro.workloads.chbench import CHBenchmark
from repro.workloads.invariants import tpcc_consistency_errors
from repro.workloads.tpcc import TABLES as TPCC_TABLES
from repro.workloads.tpcc import TPCCConfig, TPCCRunner
from repro.workloads.ycsb import INDEX as YCSB_INDEX
from repro.workloads.ycsb import TABLE as YCSB_TABLE
from repro.workloads.ycsb import WORKLOADS, YCSBRunner

from .client import MAX_PARTITIONS, BenchBackend, Target, row_bytes

#: BENCHMARK.json's run_seconds
RUN_SECONDS = 10
#: the per-layer (traced) passes run this share of the chunks
TRACED_SHARE = 4
PARTITION_BUFFER_PAGES = 16
MANIFEST_SLOT_PAGES = 128
SHARDS = 4
#: stated in every result file
FLUSH_POLICY = (
    f"durability=True, one WAL append per commit, manifest_slot_pages="
    f"{MANIFEST_SLOT_PAGES}, max_partitions={MAX_PARTITIONS}, "
    f"{PARTITION_BUFFER_PAGES}-page partition buffer, no vacuum, one client "
    f"thread, parallel_scatter_gather=False")


def tpcc_config(seed: int, scale: float) -> TPCCConfig:
    # vacuum stays off: vacuum_sias frees pages whose versions were all
    # written by rolled-back transactions while the chain entry points
    # still name them, and TPC-C rolls 1% of new-orders back - the C4
    # check then fails or a later read raises PageNotFoundError
    # (bench/README.md, "First findings")
    def scaled(n: int, floor: int) -> int:
        return max(floor, round(n * scale))

    return TPCCConfig(warehouses=4, districts_per_warehouse=scaled(10, 2),
                      customers_per_district=scaled(30, 3),
                      items=scaled(200, 20),
                      initial_orders_per_district=scaled(30, 3),
                      remote_order_line_prob=0.1, vacuum_every=0, seed=seed)


def engine_config(pool_pages: int, obs: bool) -> EngineConfig:
    return EngineConfig(
        buffer_pool_pages=pool_pages, durability=True,
        manifest_slot_pages=MANIFEST_SLOT_PAGES,
        partition_buffer_bytes=PARTITION_BUFFER_PAGES * 8192,
        # the registry only; the program's own trace ring stays off
        obs=ObsConfig(enabled=obs, tracing=False))


class Driver:
    """One workload instance: builds the stack, loads it, runs chunks,
    checks the outcome.  ``target`` is the engine under test, ``backend``
    the proxy every op goes through; ``obs`` turns the program's metrics
    registry on (traced pass)."""

    target: Target
    backend: BenchBackend
    #: ops that ended other than the generator intended
    failed = 0
    aborts = 0
    cpu_oltp_ns = 0
    cpu_olap_ns = 0
    oltp_txns = 0
    olap_queries = 0

    def __init__(self, spec: "Spec", seed: int, scale: float,
                 obs: bool) -> None:
        self.spec = spec
        self.chunk_ops = max(4, round(spec.chunk_ops * scale))
        self.pool_pages = spec.pool_pages

    def load(self) -> None:
        raise NotImplementedError

    def run_chunk(self) -> None:
        raise NotImplementedError

    def scheduler_ticks(self) -> int:
        return 0

    def start_timed_phase(self) -> None:
        """Forget the warm-up: zero the per-pass totals."""
        self.backend.recorder.reset()
        self.failed = self.aborts = 0
        self.cpu_oltp_ns = self.cpu_olap_ns = 0
        self.oltp_txns = self.olap_queries = 0

    def check(self) -> tuple[list[str], int, int]:
        """(errors, live rows, live user bytes) of the committed state."""
        raise NotImplementedError

    def close(self) -> None:
        self.backend.close()

    def describe(self) -> dict[str, Any]:
        return {"chunk_ops": self.chunk_ops,
                "engine": {"buffer_pool_pages": self.pool_pages,
                           "partition_buffer_pages": PARTITION_BUFFER_PAGES,
                           "manifest_slot_pages": MANIFEST_SLOT_PAGES,
                           "durability": True,
                           "max_partitions": MAX_PARTITIONS}}


class YCSBDriver(Driver):
    def __init__(self, spec: "Spec", seed: int, scale: float,
                 obs: bool) -> None:
        super().__init__(spec, seed, scale, obs)
        self.records = max(500, round(spec.records * scale))
        self.pool_pages = max(32, round(spec.pool_pages * scale))
        db = Database(engine_config(self.pool_pages, obs))
        self.target = db
        self.backend = BenchBackend(DatabaseBackend(db), db)
        self.runner = YCSBRunner(
            self.backend,
            WORKLOADS[spec.ycsb].scaled(record_count=self.records,
                                        seed=seed),
            spec.ycsb, record_ops=True)

    def load(self) -> None:
        self.runner.load()
        self.backend.flush_all()

    def run_chunk(self) -> None:
        cpu0 = process_time_ns()
        self.runner.run(self.chunk_ops)
        self.cpu_oltp_ns += process_time_ns() - cpu0
        self.oltp_txns += self.chunk_ops

    def check(self) -> tuple[list[str], int, int]:
        """Replay the runner's op log over the loaded rows in a dict."""
        expect = {k: v for k, v in self.backend.loaded[YCSB_TABLE]}
        for line in self.runner.op_log:
            op, _, rest = line.partition(" ")
            if op in ("update", "insert"):
                key, _, value = rest.partition(" ")
                expect[key] = value
        got = self.backend.dump_table(YCSB_TABLE)
        errors = []
        if got != sorted(expect.items()):
            errors.append(f"{YCSB_TABLE}: committed state differs from the "
                          f"op-log replay ({len(got)} rows vs "
                          f"{len(expect)})")
        return errors, len(got), sum(row_bytes(r) for r in got)

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "records": self.records,
                "value_bytes": self.runner.config.value_bytes,
                "index": YCSB_INDEX}


class TPCCDriver(Driver):
    """TPC-C through a ShardServer over four hash-partitioned shards."""

    def __init__(self, spec: "Spec", seed: int, scale: float,
                 obs: bool) -> None:
        super().__init__(spec, seed, scale, obs)
        router = ShardedDatabase(
            engine_config(spec.pool_pages, obs),
            ShardConfig(shards=SHARDS))
        self.target = router
        self.server = router.serve(ServeConfig())
        self.backend = BenchBackend(ShardServerBackend(self.server), router)
        self.config = tpcc_config(seed, scale)
        self.tpcc = TPCCRunner(self.backend, self.config, record_ops=True)

    def load(self) -> None:
        self.tpcc.load()

    def _oltp(self, txns: int) -> None:
        cpu0 = process_time_ns()
        result = self.tpcc.run(txns)
        self.cpu_oltp_ns += process_time_ns() - cpu0
        self.oltp_txns += txns
        self.aborts += result.aborted

    def run_chunk(self) -> None:
        self._oltp(self.chunk_ops)

    def scheduler_ticks(self) -> int:
        return self.server.scheduler.ticks

    def start_timed_phase(self) -> None:
        super().start_timed_phase()
        self._log_from = len(self.tpcc.op_log)

    def check(self) -> tuple[list[str], int, int]:
        errors = tpcc_consistency_errors(self.backend)
        # TPC-C rolls 1% of new-orders back on purpose; anything beyond
        # those is an op that failed
        intended = sum("rollback=1" in line
                       for line in self.tpcc.op_log[self._log_from:])
        self.failed = self.aborts - intended
        rows = [row for table in TPCC_TABLES
                for row in self.backend.dump_table(table)]
        return errors, len(rows), sum(row_bytes(r) for r in rows)

    def describe(self) -> dict[str, Any]:
        cfg = self.config
        return {**super().describe(), "shards": SHARDS,
                "serve": "ServeConfig() defaults, one session per open txn",
                "tpcc": {"warehouses": cfg.warehouses,
                         "districts_per_warehouse":
                             cfg.districts_per_warehouse,
                         "customers_per_district":
                             cfg.customers_per_district,
                         "items": cfg.items,
                         "remote_order_line_prob":
                             cfg.remote_order_line_prob,
                         "vacuum_every": cfg.vacuum_every}}


class CHDriver(TPCCDriver):
    """One chunk = one CH round: open the analytic snapshot, run the OLTP
    slice, run the seven queries on the stale snapshot, commit it.  An op
    is one OLTP transaction or one query; the held transaction is not."""

    def __init__(self, spec: "Spec", seed: int, scale: float,
                 obs: bool) -> None:
        super().__init__(spec, seed, scale, obs)
        self.ch = CHBenchmark(self.backend, self.config)
        self.ch.tpcc = self.tpcc    # the op-logging runner built above

    def run_chunk(self) -> None:
        held = self.backend.begin_held()
        self._oltp(self.chunk_ops)
        recorder = self.backend.recorder
        cpu0 = process_time_ns()
        for name in self.ch.QUERIES:
            recorder.begin_op("query")
            self.ch.run_query(held, name)
            recorder.end_op()
        self.cpu_olap_ns += process_time_ns() - cpu0
        self.olap_queries += len(self.ch.QUERIES)
        held.commit()

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "queries_per_round":
                list(self.ch.QUERIES)}


@dataclass(frozen=True)
class Spec:
    name: str
    driver: type[Driver]
    why: str
    chunk_ops: int          # ops per chunk (CH: OLTP txns per round)
    chunks_per_second: int
    pool_pages: int
    records: int = 0        # YCSB only
    ycsb: str = ""          # YCSB preset letter


SPECS: dict[str, Spec] = {s.name: s for s in (
    Spec("ycsb_a_cold", YCSBDriver,
         "YCSB-A on a bare Database, 60k rows in a 256-page pool (hit "
         "rate ~0.56): point search, P_N writes, evict/merge/GC, WAL and "
         "device do the work; serve and shard do none.",
         chunk_ops=2250, chunks_per_second=4, pool_pages=256,
         records=60_000, ycsb="A"),
    Spec("ycsb_e_hot", YCSBDriver,
         "YCSB-E on a bare Database, 60k rows, pool fits: scan merge and "
         "visibility do the work, all CPU; search, WAL, device, serve, "
         "shard do almost none - the mirror of ycsb_a_cold.",
         chunk_ops=1125, chunks_per_second=4, pool_pages=2048,
         records=60_000, ycsb="E"),
    Spec("tpcc_served4", TPCCDriver,
         "TPC-C full mix through ShardServer over 4 shards (10% remote "
         "lines, 25% 2PC commits): session, scheduler, router and adapters "
         "own ~1/3 of the CPU and the router's fan-out triples the index "
         "searches.",
         chunk_ops=75, chunks_per_second=4, pool_pages=2048),
    Spec("ch_htap_served4", CHDriver,
         "CH rounds (hold snapshot, 100 TPC-C txns, 7 analytic queries on "
         "it) over 4 served shards: sliced scatter-gather scans over "
         "version chains the held snapshot pins, writes beside reads.",
         chunk_ops=100, chunks_per_second=1, pool_pages=2048),
)}


def chunk_count(spec: Spec, seconds: int, traced: bool) -> int:
    chunks = spec.chunks_per_second * seconds
    return max(1, chunks // TRACED_SHARE) if traced else chunks
