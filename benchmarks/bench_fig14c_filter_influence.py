"""Figure 14c — influence of the filter techniques on TPC-C throughput.

Paper result: partition bloom filters add ~10% throughput (point lookups
skip partitions), prefix bloom filters another ~10% (range scans skip too).

The filters are not options here: every MV-PBT partition builds a bloom
filter and, on composite keys, a prefix bloom filter.  The figure runs the
"no partition filters" ablation (``use_bloom=False``) against the default,
and splits the default's skips into point lookups (bloom filters) and
range scans (prefix bloom filters) by each filter's own ``FilterStats``.
"""

from repro.bench.reporting import print_table
from repro.engine import Database
from repro.index.filters import FilterStats
from repro.workloads.tpcc import TPCCRunner

from common import run_simulation, small_engine, tpcc_scale

TRANSACTIONS = 700

VARIANTS = [
    ("no filters", {"use_bloom": False}),
    ("filters", {}),
]


def filter_stats(db: Database) -> dict[str, FilterStats]:
    """Summed outcome counters of every persisted MV-PBT partition's bloom
    filter (point lookups) and prefix bloom filter (range scans)."""
    totals = {"point (BF)": FilterStats(), "range (pBF)": FilterStats()}
    for info in db.catalog.indexes:
        if not info.is_mvpbt:
            continue
        for part in info.mvpbt.persisted_partitions:
            for kind, filt in (("point (BF)", part.bloom),
                               ("range (pBF)", part.prefix_bloom)):
                if filt is None:
                    continue
                total, stats = totals[kind], filt.stats
                total.queries += stats.queries
                total.negatives += stats.negatives
                total.positives += stats.positives
                total.false_positives += stats.false_positives
    return totals


def run_variant(options) -> tuple[float, dict[str, FilterStats]]:
    # a tiny partition buffer maximises partition counts — the situation
    # the filters exist for (the paper's multi-partition MV-PBTs); a larger
    # item catalogue gives the hot stock index real partitions to skip
    db = Database(small_engine(buffer_pool_pages=96,
                               partition_buffer_pages=2))
    runner = TPCCRunner(db, tpcc_scale(warehouses=1, items=300,
                                       customers_per_district=40),
                        index_kind="mvpbt", index_options=options)
    runner.load()
    db.flush_all()
    tpm = runner.run(TRANSACTIONS).tpm
    return tpm, filter_stats(db)


def test_fig14c_filter_influence(benchmark):
    def run():
        rows = []
        metrics = {}
        split = {}
        for label, options in VARIANTS:
            tpm, split = run_variant(options)
            rows.append([label, round(tpm)])
            metrics[label.replace(" ", "_")] = tpm
        print_table("Figure 14c: MV-PBT filters under TPC-C (tx/sim-min)",
                    ["configuration", "throughput"], rows)
        # the default run's filters: which probes skipped a partition
        filter_rows = []
        for kind, stats in split.items():
            filter_rows.append([kind, stats.queries, stats.negatives,
                                f"{stats.negative_rate:.1%}",
                                f"{stats.false_positive_rate:.1%}"])
            slug = kind.split()[0]
            metrics[f"{slug}_probes"] = stats.queries
            metrics[f"{slug}_skips"] = stats.negatives
        print_table("Figure 14c: partition skips by filter (default run)",
                    ["filter", "probes", "skipped", "skip rate",
                     "false pos"], filter_rows)
        return metrics

    result = run_simulation(benchmark, run)
    # the filters must help; both kinds must skip partitions
    assert result["filters"] >= 1.04 * result["no_filters"]
    assert result["point_skips"] > 0 and result["range_skips"] > 0
