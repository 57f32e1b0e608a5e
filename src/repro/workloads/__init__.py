"""Evaluation workloads: YCSB, TPC-C (DBT-2 style) and the CH-benchmark.

All three runners drive a :class:`~repro.workloads.backend.WorkloadBackend`
— one API over a bare database or a served 2PC-sharded cluster
(DESIGN.md §18).
"""

from .backend import (DatabaseBackend, ShardServerBackend, WorkloadBackend,
                      WorkloadHit, WorkloadTxn, as_backend,
                      shard_served_backend)
from .chbench import CHBenchmark, CHResult
from .invariants import assert_tpcc_consistent, tpcc_consistency_errors
from .distributions import (LatestDistribution, ScrambledZipfian,
                            UniformDistribution, ZipfianDistribution)
from .tpcc import TPCCConfig, TPCCResult, TPCCRunner
from .ycsb import (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D,
                   WORKLOAD_E, WORKLOAD_F, WORKLOADS, YCSBConfig,
                   YCSBResult, YCSBRunner)

__all__ = [
    "UniformDistribution",
    "ZipfianDistribution",
    "ScrambledZipfian",
    "LatestDistribution",
    "YCSBConfig",
    "YCSBResult",
    "YCSBRunner",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WORKLOAD_E",
    "WORKLOAD_F",
    "WORKLOADS",
    "TPCCConfig",
    "TPCCResult",
    "TPCCRunner",
    "CHBenchmark",
    "CHResult",
    "WorkloadBackend",
    "WorkloadTxn",
    "WorkloadHit",
    "DatabaseBackend",
    "ShardServerBackend",
    "as_backend",
    "shard_served_backend",
    "assert_tpcc_consistent",
    "tpcc_consistency_errors",
]
