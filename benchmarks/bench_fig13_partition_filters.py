"""Figure 13 — effectiveness and size of partition filters.

The paper reports, for TPC-C point lookups and range scans against a
multi-partition MV-PBT:

* bloom filter: 81.8% negatives (partitions skipped), 0.6% false positives;
* prefix bloom filter: 84.5% negatives, 10.6% false positives;
* sizes: 0.57 MB (BF) and 0.36 MB (pBF) for a 24 MB partition.
"""

import random

from repro.bench.reporting import print_table
from repro.engine import Database
from repro.workloads.distributions import fnv1a_64

from common import run_simulation, small_engine

PREFIX_SPACE = 1000


def _prefix_of(key: int) -> int:
    # each partition ends up covering a scattered ~1/5 of the prefix space,
    # so partition range keys overlap (useless) and only the filters can
    # skip — the TPC-C situation the paper measures
    return fnv1a_64(key // 6) % PREFIX_SPACE

PARTITIONS = 8
ROWS_PER_PARTITION = 1200
LOOKUPS = 3000
SCANS = 1500


def build_index():
    db = Database(small_engine(buffer_pool_pages=128,
                               partition_buffer_pages=256))
    db.create_table("r", [("d", "int"), ("o", "int"), ("z", "str")],
                    storage="sias")
    # a two-column key: every partition builds a prefix filter over (d,)
    db.create_index("ix", "r", ["d", "o"], kind="mvpbt")
    ix = db.catalog.index("ix").mvpbt
    rng = random.Random(5)
    key = 0
    for _p in range(PARTITIONS):
        txn = db.begin()
        for _ in range(ROWS_PER_PARTITION):
            db.insert(txn, "r", (_prefix_of(key), key, "v"))
            key += 1
        txn.commit()
        ix.evict_partition()
    return db, ix, rng, key


def test_fig13_partition_filters(benchmark):
    def run():
        db, ix, rng, key_space = build_index()
        # point lookups exercise the bloom filter
        for _ in range(LOOKUPS):
            probe = rng.randrange(key_space)
            txn = db.begin()
            db.select(txn, "ix", (_prefix_of(probe), probe))
            txn.commit()
        # prefix scans exercise the prefix bloom filter
        for _ in range(SCANS):
            prefix = rng.randrange(PREFIX_SPACE)
            txn = db.begin()
            db.count_range(txn, "ix", (prefix,), (prefix, 10 ** 9))
            txn.commit()

        bf_stats = [p.bloom.stats for p in ix.persisted_partitions]
        pbf_stats = [p.prefix_bloom.stats for p in ix.persisted_partitions]

        def aggregate(stats_list):
            queries = sum(s.queries for s in stats_list)
            negatives = sum(s.negatives for s in stats_list)
            positives = sum(s.positives for s in stats_list)
            fps = sum(s.false_positives for s in stats_list)
            return queries, negatives, positives, fps

        rows = []
        metrics = {}
        for name, stats_list in (("Bloom Filter", bf_stats),
                                 ("Prefix Bloom Filter", pbf_stats)):
            queries, negatives, positives, fps = aggregate(stats_list)
            neg_rate = negatives / queries if queries else 0.0
            fp_rate = fps / queries if queries else 0.0
            pos_rate = positives / queries if queries else 0.0
            rows.append([name, queries, f"{neg_rate:.1%}", f"{fp_rate:.1%}",
                         f"{pos_rate:.1%}"])
            slug = "bf" if name == "Bloom Filter" else "pbf"
            metrics[f"{slug}_negative_rate"] = neg_rate
            metrics[f"{slug}_fp_rate"] = fp_rate
        print_table("Figure 13: filter effectiveness",
                    ["filter", "queries", "negatives", "false pos",
                     "positives"], rows)

        size_rows = []
        for p in ix.persisted_partitions[:3]:
            size_rows.append([f"P{p.number}",
                              round(p.size_bytes / 1024, 1),
                              round(p.bloom.size_bytes / 1024, 2),
                              round(p.prefix_bloom.size_bytes / 1024, 2)])
        print_table("Figure 13: partition and filter sizes (KiB)",
                    ["partition", "partition KiB", "BF KiB", "pBF KiB"],
                    size_rows)
        part = ix.persisted_partitions[0]
        metrics["bf_to_partition_ratio"] = (part.bloom.size_bytes
                                            / part.size_bytes)
        metrics["pbf_to_partition_ratio"] = (part.prefix_bloom.size_bytes
                                             / part.size_bytes)
        return metrics

    result = run_simulation(benchmark, run)
    # the paper's shape: most probes are negatives; FP rates near targets
    assert result["bf_negative_rate"] > 0.6          # paper: 81.8%
    assert result["bf_fp_rate"] < 0.05               # paper: 0.6%
    assert result["pbf_fp_rate"] < 0.20              # paper: 10.6%
    # filters are small relative to their partitions (paper: ~2%)
    assert result["bf_to_partition_ratio"] < 0.10
    assert result["pbf_to_partition_ratio"] < result["bf_to_partition_ratio"]
