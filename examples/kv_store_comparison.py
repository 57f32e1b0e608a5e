#!/usr/bin/env python3
"""KV-store engine comparison under YCSB (the paper's WiredTiger experiment).

Runs the full YCSB suite — A (update-heavy), B (read-mostly), C (read-only),
D (read-latest), E (scan-heavy) and F (read-modify-write); the paper
instruments A/B/D/E — against three storage engines sharing one simulated
device and cost model:

* a B⁺-Tree updated in place,
* a leveled LSM-Tree with bloom filters,
* an MV-PBT storing values inline (blind replacement-record updates).

Run:  python examples/kv_store_comparison.py
"""

import dataclasses

from repro.bench.reporting import print_table
from repro.config import EngineConfig
from repro.kv import make_kv_store
from repro.workloads.ycsb import WORKLOADS, YCSBRunner

RECORDS = 8_000
OPERATIONS = 10_000
VALUE_BYTES = 800

CONFIG = EngineConfig(buffer_pool_pages=64,
                      partition_buffer_bytes=256 * 8192)


def make_store(kind: str):
    if kind == "btree":
        return make_kv_store("btree", CONFIG, value_bytes=VALUE_BYTES)
    if kind == "lsm":
        # WiredTiger-style fixed in-memory chunk, smaller than MV-PBT's P_N
        return make_kv_store("lsm", CONFIG,
                             memtable_bytes=CONFIG.partition_buffer_bytes // 4)
    return make_kv_store("mvpbt", CONFIG)


def main() -> None:
    rows = []
    details = []
    for workload in ("A", "B", "C", "D", "E", "F"):
        row = [workload]
        for kind in ("btree", "lsm", "mvpbt"):
            config = dataclasses.replace(
                WORKLOADS[workload],
                record_count=RECORDS,
                operation_count=(1000 if workload == "E" else OPERATIONS),
                value_bytes=VALUE_BYTES, max_scan_length=50)
            store = make_store(kind)
            runner = YCSBRunner(store, config, workload)
            runner.load()
            result = runner.run()
            row.append(round(result.throughput))
            if workload == "A":
                if kind == "lsm":
                    details.append(
                        f"  LSM: {store.lsm.component_count} components, "
                        f"write amplification "
                        f"{store.lsm.stats.write_amplification:.1f}x")
                if kind == "mvpbt":
                    details.append(
                        f"  MV-PBT: {store.tree.partition_count} partitions, "
                        f"{store.tree.gc_stats.purged_eviction} records "
                        f"GC'd at evictions")
        rows.append(row)
        print(f"workload {workload}: done")

    print_table("YCSB throughput (operations per simulated second)",
                ["workload", "BTree", "LSM", "MV-PBT"], rows)
    for line in details:
        print(line)


if __name__ == "__main__":
    main()
