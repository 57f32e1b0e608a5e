"""Figure 15b — YCSB-A throughput vs. the number of MV-PBT partitions.

The paper runs workload A for ~570 s while the partition count grows from
1 to 9 and shows throughput stays stable — searching more partitions does
not erode performance (filters + GC keep per-partition work bounded).
"""

import dataclasses

from repro.bench.reporting import print_series
from repro.config import EngineConfig
from repro.kv import make_kv_store
from repro.workloads.ycsb import WORKLOAD_A, YCSBRunner

from common import run_simulation

RECORDS = 12_000
WINDOWS = 10
OPS_PER_WINDOW = 3_000

CONFIG = EngineConfig(buffer_pool_pages=64,
                      partition_buffer_bytes=96 * 8192)


def test_fig15b_partition_growth(benchmark):
    def run():
        config = dataclasses.replace(WORKLOAD_A, record_count=RECORDS,
                                     operation_count=OPS_PER_WINDOW,
                                     value_bytes=800)
        store = make_kv_store("mvpbt", CONFIG)
        runner = YCSBRunner(store, config, "A")
        runner.load()

        throughputs = []
        partitions = []
        for _window in range(WINDOWS):
            result = runner.run(OPS_PER_WINDOW)
            throughputs.append(result.throughput)
            partitions.append(store.tree.partition_count)
        print_series("Figure 15b: YCSB-A throughput vs MV-PBT partitions",
                     "window", list(range(1, WINDOWS + 1)),
                     {"throughput (ops/sim-s)": throughputs,
                      "partitions": [float(p) for p in partitions]})
        return {
            "first_window": throughputs[0],
            "last_window": throughputs[-1],
            "min_window": min(throughputs),
            "partitions_start": partitions[0],
            "partitions_end": partitions[-1],
        }

    result = run_simulation(benchmark, run)
    # partitions grow over the run ...
    assert result["partitions_end"] > result["partitions_start"]
    # ... while throughput stays stable (within 40% of the first window;
    # the paper's Figure 15b shows the same flat line with noise)
    assert result["min_window"] > 0.6 * result["first_window"]
    assert result["last_window"] > 0.6 * result["first_window"]
