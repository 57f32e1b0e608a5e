"""Figure 12d — buffer requests and cache-hit rate: index vs base-table nodes.

The paper compares fetch requests on index nodes vs base-table nodes (and
their cache-hit rates) for PostgreSQL HOT, B-Tree with logical (LR) and
physical (PR) references, PBT and MV-PBT, under an OLTP workload at equal
throughput.  MV-PBT cuts base-table requests by up to 40% because the base
table is not needed for visibility checks.
"""

from repro.bench.reporting import print_table
from repro.buffer.pool import FileBufferStats
from repro.engine import Database
from repro.workloads.tpcc import TPCCRunner

from common import (buffer_stats_by_group, run_simulation, small_engine,
                    tpcc_scale)

VARIANTS = [
    ("HOT", "btree", "physical", "heap"),
    ("BTree-LR", "btree", "logical", "sias"),
    ("BTree-PR", "btree", "physical", "sias"),
    ("PBT", "pbt", "physical", "sias"),
    ("MV-PBT", "mvpbt", "physical", "sias"),
]

TRANSACTIONS = 400


def run_variant(kind, reference, storage):
    # small partition buffer: partitioned indexes spill persisted partitions
    # whose nodes are then fetched through the shared pool (the paper's
    # "more requests on index nodes due to partitioning")
    db = Database(small_engine(buffer_pool_pages=64,
                               partition_buffer_pages=6))
    runner = TPCCRunner(db, tpcc_scale(warehouses=1), index_kind=kind,
                        reference=reference, storage=storage)
    runner.load()
    db.flush_all()
    before = buffer_stats_by_group(db)
    runner.run(TRANSACTIONS)      # equal work for every variant
    after = buffer_stats_by_group(db)
    return {group: FileBufferStats(
                after[group].requests - before[group].requests,
                after[group].hits - before[group].hits)
            for group in after}


def test_fig12d_buffer_efficiency(benchmark):
    def run():
        rows = []
        metrics = {}
        for label, kind, reference, storage in VARIANTS:
            groups = run_variant(kind, reference, storage)
            index, table = groups["index"], groups["table"]
            rows.append([label, index.requests, f"{index.hit_rate:.1%}",
                         table.requests, f"{table.hit_rate:.1%}"])
            slug = label.lower().replace("-", "_")
            metrics[f"{slug}_index_requests"] = index.requests
            metrics[f"{slug}_table_requests"] = table.requests
        print_table("Figure 12d: buffer requests / hit rate at equal work",
                    ["variant", "index req", "index hit",
                     "table req", "table hit"], rows)
        return metrics

    result = run_simulation(benchmark, run)
    # the paper's headline observation: MV-PBT needs the base table least
    # (the base table is not required for visibility checks)
    assert result["mv_pbt_table_requests"] < 0.6 * result["pbt_table_requests"]
    assert result["mv_pbt_table_requests"] < 0.6 * result["btree_pr_table_requests"]
    assert result["mv_pbt_table_requests"] <= result["hot_table_requests"]
    # partitioned indexes do reach persisted partition nodes via the pool
    assert result["pbt_index_requests"] > 0
    assert result["mv_pbt_index_requests"] > 0
