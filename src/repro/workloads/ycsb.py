"""YCSB driver over the KV-store engines (paper §5, Figure 15).

Workload presets match the paper's instrumentation:

* **A** — 50% read / 50% update, zipfian;
* **B** — 95% read / 5% update, zipfian;
* **C** — 100% read, zipfian;
* **D** — 95% read / 5% insert, latest;
* **E** — 95% scan / 5% insert, zipfian, scan length uniform in [1, 100];
* **F** — 50% read / 50% read-modify-write, zipfian.

The paper instruments A, B, D and E; C and F complete the standard suite.

The runner drives either a :class:`~repro.kv.store.KVStore` (the paper's
engine comparison) or any :class:`~repro.workloads.backend
.WorkloadBackend` target — a bare database or a served sharded cluster
(§18).  On a backend each operation is one transaction
against a ``usertable(k, v)`` relation with an MV-PBT primary index;
scans ride the streaming ``scan_limit`` path (scatter-gather
``batch_scan`` on served shards).  The operation stream drawn from the
seeded RNG is identical across every target.

Throughput is reported in operations per *simulated* second (the
substitution documented in DESIGN.md §3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Union

from ..errors import WorkloadError
from ..kv.store import KVStore
from .backend import BackendTarget, WorkloadBackend, as_backend
from .distributions import KeyDistribution, make_distribution

KEY_FORMAT = "user{:010d}"

#: relational schema used when driving a WorkloadBackend
TABLE = "usertable"
INDEX = "ycsb_pk"


@dataclass(frozen=True)
class YCSBConfig:
    """One YCSB workload configuration."""

    record_count: int = 10_000
    operation_count: int = 20_000
    read_proportion: float = 0.5
    update_proportion: float = 0.5
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    rmw_proportion: float = 0.0
    distribution: str = "zipfian"
    max_scan_length: int = 100
    value_bytes: int = 100
    seed: int = 42

    def __post_init__(self) -> None:
        total = (self.read_proportion + self.update_proportion
                 + self.insert_proportion + self.scan_proportion
                 + self.rmw_proportion)
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"proportions sum to {total}, expected 1.0")

    def scaled(self, *, record_count: int | None = None,
               operation_count: int | None = None,
               seed: int | None = None) -> "YCSBConfig":
        """A copy with a different scale (benchmark parameterisation)."""
        kwargs = {}
        if record_count is not None:
            kwargs["record_count"] = record_count
        if operation_count is not None:
            kwargs["operation_count"] = operation_count
        if seed is not None:
            kwargs["seed"] = seed
        return replace(self, **kwargs)


WORKLOAD_A = YCSBConfig(read_proportion=0.5, update_proportion=0.5,
                        distribution="zipfian")
WORKLOAD_B = YCSBConfig(read_proportion=0.95, update_proportion=0.05,
                        distribution="zipfian")
WORKLOAD_C = YCSBConfig(read_proportion=1.0, update_proportion=0.0,
                        distribution="zipfian")
WORKLOAD_D = YCSBConfig(read_proportion=0.95, update_proportion=0.0,
                        insert_proportion=0.05, distribution="latest")
WORKLOAD_E = YCSBConfig(read_proportion=0.0, update_proportion=0.0,
                        insert_proportion=0.05, scan_proportion=0.95,
                        distribution="zipfian")
WORKLOAD_F = YCSBConfig(read_proportion=0.5, update_proportion=0.0,
                        rmw_proportion=0.5, distribution="zipfian")

WORKLOADS = {"A": WORKLOAD_A, "B": WORKLOAD_B, "C": WORKLOAD_C,
             "D": WORKLOAD_D, "E": WORKLOAD_E, "F": WORKLOAD_F}


@dataclass
class YCSBResult:
    """Outcome of one YCSB run."""

    workload: str
    engine: str
    operations: int
    elapsed_sim_seconds: float
    counts: dict[str, int] = field(default_factory=dict)
    not_found: int = 0

    @property
    def throughput(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_sim_seconds <= 0:
            return 0.0
        return self.operations / self.elapsed_sim_seconds


class YCSBRunner:
    """Loads and drives one KV engine OR one workload backend.

    Pass ``record_ops=True`` to capture the decoded operation stream in
    :attr:`op_log` ("read user…", "scan user… 17", …) — the determinism
    suite compares these logs byte-for-byte across backends.
    """

    def __init__(self,
                 store: Union[KVStore, BackendTarget],
                 config: YCSBConfig,
                 workload_name: str = "custom", *,
                 record_ops: bool = False) -> None:
        self.store: KVStore | None
        self.backend: WorkloadBackend | None
        if isinstance(store, KVStore):
            self.store = store
            self.backend = None
        else:
            self.store = None
            self.backend = as_backend(store)
        self.config = config
        self.workload_name = workload_name
        self._rng = random.Random(config.seed)
        self._value_rng = random.Random(config.seed + 1)
        self._inserted = 0
        self._dist: KeyDistribution | None = None
        self._record_ops = record_ops
        #: decoded operation stream (only when ``record_ops``)
        self.op_log: list[str] = []

    # ------------------------------------------------------------------ load

    def load(self) -> None:
        """Insert the initial dataset (sequentially keyed, like YCSB load).

        Rows are generated in one fixed RNG order regardless of target,
        then loaded: direct puts on a KV store, a shard-aware
        ``bulk_insert`` on a backend.
        """
        rows = [(self._key(idx), self._value())
                for idx in range(self.config.record_count)]
        if self.backend is not None:
            self._create_schema(self.backend)
            self.backend.bulk_insert(TABLE, rows)
        else:
            assert self.store is not None
            for key, value in rows:
                self.store.put(key, value)
        self._inserted = self.config.record_count
        self._dist = make_distribution(self.config.distribution,
                                       self._inserted, self._rng)

    @staticmethod
    def _create_schema(backend: WorkloadBackend) -> None:
        backend.create_table(TABLE, [("k", "str"), ("v", "str")],
                             shard_key=["k"])
        backend.create_index(INDEX, TABLE, ["k"], unique=True)

    # ------------------------------------------------------------------- run

    def run(self, operation_count: int | None = None) -> YCSBResult:
        if self._dist is None:
            raise WorkloadError("call load() before run()")
        ops = (operation_count if operation_count is not None
               else self.config.operation_count)
        start = self._now()
        counts = {"read": 0, "update": 0, "insert": 0, "scan": 0, "rmw": 0}
        not_found = 0

        thresholds = self._thresholds()
        for _ in range(ops):
            roll = self._rng.random()
            if roll < thresholds[0]:
                key = self._key(self._dist.next_index())
                self._note(f"read {key}")
                if not self._read(key):
                    not_found += 1
                counts["read"] += 1
            elif roll < thresholds[1]:
                key = self._key(self._dist.next_index())
                value = self._value()
                self._note(f"update {key} {value}")
                self._put(key, value)
                counts["update"] += 1
            elif roll < thresholds[2]:
                key = self._key(self._inserted)
                value = self._value()
                self._note(f"insert {key} {value}")
                self._put(key, value)
                self._inserted += 1
                self._dist.grow(self._inserted)
                counts["insert"] += 1
            elif roll < thresholds[3]:
                key = self._key(self._dist.next_index())
                length = self._rng.randint(1, self.config.max_scan_length)
                self._note(f"scan {key} {length}")
                self._scan(key, length)
                counts["scan"] += 1
            else:
                # read-modify-write: read the record, write it back modified
                key = self._key(self._dist.next_index())
                value = self._value()
                self._note(f"rmw {key} {value}")
                if not self._read(key):
                    not_found += 1
                self._put(key, value)
                counts["rmw"] += 1

        return YCSBResult(
            workload=self.workload_name,
            engine=self._engine_name(),
            operations=ops,
            elapsed_sim_seconds=self._now() - start,
            counts=counts,
            not_found=not_found)

    # ---------------------------------------------------------- op execution

    def _read(self, key: str) -> bool:
        if self.backend is not None:
            txn = self.backend.begin()
            try:
                rows = txn.select(INDEX, (key,))
            finally:
                txn.commit()
            return bool(rows)
        assert self.store is not None
        return self.store.get(key) is not None

    def _put(self, key: str, value: str) -> None:
        """Upsert (the YCSB update/insert primitive)."""
        if self.backend is not None:
            txn = self.backend.begin()
            try:
                hits = txn.select_hits(INDEX, (key,))
                if hits:
                    txn.update(TABLE, hits[0], {"v": value})
                else:
                    txn.insert(TABLE, (key, value))
            finally:
                txn.commit()
            return
        assert self.store is not None
        self.store.put(key, value)

    def _scan(self, key: str, length: int) -> int:
        if self.backend is not None:
            txn = self.backend.begin()
            try:
                rows = txn.scan_limit(INDEX, (key,), length)
            finally:
                txn.commit()
            return len(rows)
        assert self.store is not None
        return len(self.store.scan(key, length))

    # -------------------------------------------------------------- internal

    def _now(self) -> float:
        if self.backend is not None:
            return self.backend.sim_now
        assert self.store is not None
        return self.store.env.clock.now

    def _engine_name(self) -> str:
        if self.backend is not None:
            return self.backend.name
        assert self.store is not None
        return self.store.name

    def _note(self, op: str) -> None:
        if self._record_ops:
            self.op_log.append(op)

    def _thresholds(self) -> tuple[float, float, float, float]:
        c = self.config
        read_end = c.read_proportion
        update_end = read_end + c.update_proportion
        insert_end = update_end + c.insert_proportion
        scan_end = insert_end + c.scan_proportion
        return (read_end, update_end, insert_end, scan_end)

    @staticmethod
    def _key(index: int) -> str:
        return KEY_FORMAT.format(index)

    def _value(self) -> str:
        n = self.config.value_bytes
        return "".join(chr(self._value_rng.randint(97, 122))
                       for _ in range(min(n, 16))).ljust(n, "x")


def run_workload(store: Union[KVStore, BackendTarget], name: str, *,  # reprolint: disable=R12 -- tests/unit/test_ycsb.py and test_workload_consistency.py drive YCSB through it
                 record_count: int | None = None,
                 operation_count: int | None = None,
                 seed: int | None = None) -> YCSBResult:
    """Convenience: load + run a named preset on a store or backend."""
    if name not in WORKLOADS:
        raise WorkloadError(f"unknown YCSB workload {name!r}")
    config = WORKLOADS[name].scaled(record_count=record_count,
                                    operation_count=operation_count,
                                    seed=seed)
    runner = YCSBRunner(store, config, workload_name=name)
    runner.load()
    return runner.run()
