"""Shared helpers for the per-figure benchmarks.

Every benchmark reports **simulated-time** metrics (tx per simulated
minute/second) in a paper-style table, and attaches them to the
pytest-benchmark record via ``extra_info`` — wall-clock timings measure only
how long the simulation took to execute and are not the reproduction result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.buffer.pool import FileBufferStats
from repro.config import EngineConfig
from repro.engine import Database

if TYPE_CHECKING:
    from repro.workloads.tpcc import TPCCConfig

#: one benchmark's metrics: simulated-time numbers plus free-form details
Metrics = dict[str, Any]


def run_simulation(benchmark: Any, fn: Callable[[], Metrics]) -> Metrics:
    """Run ``fn`` exactly once under pytest-benchmark; returns its metrics."""
    result: Metrics = {}

    def wrapper() -> None:
        result.update(fn())

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    for key, value in result.items():
        if isinstance(value, (int, float, str)):
            benchmark.extra_info[key] = value
    return result


def small_engine(buffer_pool_pages: int = 128,
                 partition_buffer_pages: int = 32,
                 **overrides: Any) -> EngineConfig:
    """Benchmark engine config: buffer deliberately small relative to the
    generated data so the buffer:data ratio matches the paper's setup."""
    return EngineConfig(buffer_pool_pages=buffer_pool_pages,
                        partition_buffer_bytes=partition_buffer_pages * 8192,
                        **overrides)


def tpcc_scale(warehouses: int = 2, seed: int = 7,
               **overrides: Any) -> TPCCConfig:
    """Scaled-down TPC-C with PostgreSQL-like housekeeping defaults:
    periodic vacuum (autovacuum / HOT pruning) and a fixed per-transaction
    engine overhead so index costs are a realistic *share* of each
    transaction rather than its entirety."""
    from repro.workloads.tpcc import TPCCConfig
    params: dict[str, Any] = dict(warehouses=warehouses,
                                  districts_per_warehouse=4,
                                  customers_per_district=20,
                                  items=50,
                                  initial_orders_per_district=15,
                                  vacuum_every=150,
                                  overhead_per_txn=100e-6,
                                  seed=seed)
    params.update(overrides)
    return TPCCConfig(**params)


def buffer_stats_by_group(db: Database) -> dict[str, FileBufferStats]:
    """Aggregate buffer statistics into 'table' vs 'index' file groups
    (the observable of Figure 12d)."""
    groups: dict[str, FileBufferStats] = {
        "table": FileBufferStats(), "index": FileBufferStats()}
    names: dict[int, str] = {}
    for info in db.catalog.tables:
        names[info.file.file_id] = "table"
    for ix in db.catalog.indexes:
        file = getattr(ix.index, "file", None)
        if file is not None:
            names[file.file_id] = "index"
    for file_id, stats in db.pool.stats_by_file.items():
        group = names.get(file_id)
        if group is None:
            continue
        groups[group].requests += stats.requests
        groups[group].hits += stats.hits
    return groups
