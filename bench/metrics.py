"""Metric definitions and the arithmetic that turns one pass's facts into
named numbers.

This table is the single place a metric's name, unit, direction and bound
are written down; ``BENCHMARK.json`` is printed from it
(``python -m bench.metrics``) and the smoke test keeps the two equal.

A *pass* is one subprocess run of one workload (``bench/worker.py``); its
*facts* are raw counts and stamps.  End-to-end metrics come from an
untraced pass only.  Per-layer metrics come from a pair of passes over the
same shorter op stream: counter- and clock-based ones from the untraced
pass, ``*_self_us_*`` / ``*_busy_*`` ones from the traced pass.

``det`` marks a metric that repeats exactly for one (code, workload, seed):
it is built from simulated time and I/O counts only, never from the host
clock.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, NamedTuple

from bench.calibrate import REFERENCE_NS, calibrated

Facts = dict[str, Any]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    det: bool            # repeats exactly for one (code, workload, seed)
    note: str            # definition (end-to-end) / what it should move
    bound: float | None = None   # end-to-end only


# Bounds are set from the seed-to-seed spread of ten runs at the commit
# that defined the benchmark (bench/README.md, "Spread"): each is at
# least three times the widest spread seen on any workload.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", False,
           "calibrated process CPU seconds for schema + bulk load + flush "
           "+ warm-up; median of three set-ups", 0.25),
    Metric("cpu_us_per_op", "us", "lower", False,
           "median over the timed chunks of calibrated process CPU time "
           "per op", 0.25),
    Metric("sim_ops_per_s", "1/s", "higher", True,
           "ops per simulated second (router time = max over shards)",
           0.20),
    Metric("sim_p50_us", "us", "lower", True,
           "median simulated time between op completions", 0.05),
    Metric("sim_slowest1pct_us", "us", "lower", True,
           "mean of the slowest 1% of the same: the tail, foreground "
           "stalls (merge / evict) included", 0.25),
    Metric("device_ios_per_op", "io/op", "lower", True,
           "device read + write requests per op, all devices", 0.20),
    Metric("write_amp", "B/B", "lower", True,
           "device bytes written in the timed phase / user row bytes "
           "inserted or updated", 0.25),
    Metric("space_amp", "B/B", "lower", True,
           "device bytes allocated at the end / live user row bytes", 0.15),
    Metric("recover_sim_s", "s", "lower", True,
           "simulated seconds to recover after a power cut at the end of "
           "the timed phase", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", False,
           "ru_maxrss of the workload subprocess after the timed phase",
           0.10),
)

_A, _E, _T, _C = "ycsb_a_cold", "ycsb_e_hot", "tpcc_served4", "ch_htap_served4"
_SERVED = f"cpu_us_per_op on {_T}, {_C}; 0 on ycsb_*"

PER_LAYER: tuple[Metric, ...] = (
    # ---- workloads: runners + WorkloadTxn adapters
    Metric("workloads.wall_ops_per_s", "1/s", "higher", False,
           "reported, not gated: median over chunks"),
    Metric("workloads.wall_ops_per_s_iqr_frac", "1", "lower", False,
           "reported: chunk IQR / median of the above"),
    Metric("workloads.sim_p99_us", "us", "lower", True,
           "reported: one order statistic, too seed-sensitive to gate"),
    Metric("workloads.sim_max_us", "us", "lower", True,
           "reported: the single longest foreground stall"),
    Metric("workloads.wall_p50_us", "us", "lower", False, "reported"),
    Metric("workloads.wall_p99_us", "us", "lower", False, "reported"),
    Metric("workloads.adapter_self_us_per_op", "us", "lower", False,
           _SERVED),
    Metric("workloads.runner_self_us_per_op", "us", "lower", False,
           "cpu_us_per_op everywhere (op generation inside the txn)"),
    Metric("workloads.oltp_cpu_us_per_txn", "us", "lower", False,
           f"cpu_us_per_op on {_T}, {_C}"),
    Metric("workloads.olap_cpu_ms_per_query", "ms", "lower", False,
           f"cpu_us_per_op on {_C}; 0 elsewhere"),
    # ---- serve: ShardSession + FairScheduler
    Metric("serve.session_self_us_per_op", "us", "lower", False, _SERVED),
    Metric("serve.calls_per_op", "1", "lower", False, _SERVED),
    Metric("serve.scheduler_acquires_per_op", "1", "lower", True, _SERVED),
    Metric("serve.scheduler_wait_us_per_op", "us", "lower", False,
           _SERVED),
    Metric("serve.scan_slices_per_scan", "1", "lower", False,
           f"cpu_us_per_op on {_C}"),
    # ---- shard: router + coordinator
    Metric("shard.router_self_us_per_op", "us", "lower", False, _SERVED),
    Metric("shard.coordinator_self_us_per_op", "us", "lower", False,
           _SERVED),
    Metric("shard.fanout_per_query", "1", "lower", False,
           f"cpu_us_per_op, sim_ops_per_s on {_T}, {_C}"),
    Metric("shard.cross_shard_commit_frac", "1", "lower", True,
           f"sim_ops_per_s, write_amp on {_T}"),
    Metric("shard.prepares_per_commit", "1", "lower", False,
           f"write_amp on {_T} (prepare records)"),
    Metric("shard.twopc_busy_us_per_cross_commit", "us", "lower", False,
           f"cpu_us_per_op on {_T}"),
    Metric("shard.gather_merge_self_us_per_scan", "us", "lower", False,
           f"cpu_us_per_op on {_C}"),
    Metric("shard.sim_skew", "1", "lower", True,
           f"sim_ops_per_s on {_T}, {_C} (max / mean shard sim time)"),
    # ---- engine: Database + Executor
    Metric("engine.executor_self_us_per_op", "us", "lower", False,
           "cpu_us_per_op on all four"),
    Metric("engine.calls_per_op", "1", "lower", False,
           "cpu_us_per_op on all four"),
    # ---- txn
    Metric("txn.begin_commit_self_us_per_txn", "us", "lower", False,
           f"cpu_us_per_op on {_A}, {_T}"),
    Metric("txn.aborts_frac", "1", "lower", True,
           "failed ops (includes TPC-C's intended 1% rollbacks)"),
    Metric("txn.active_snapshots_max", "count", "lower", True,
           f"space_amp on {_C} (held snapshot pins versions)"),
    # ---- core: MVPBT
    Metric("core.search_busy_us_per_lookup", "us", "lower", False,
           f"cpu_us_per_op, sim_p50_us on {_A}; unchanged on {_E}"),
    Metric("core.search_self_us_per_lookup", "us", "lower", False,
           f"cpu_us_per_op on {_A}"),
    Metric("core.searches_per_op", "1", "lower", True,
           f"work share: high on {_A}, ~0 on {_E}"),
    Metric("core.partitions_probed_per_lookup", "1", "lower", False,
           f"device_ios_per_op, sim_p50_us on {_A}"),
    Metric("core.partitions_skipped_bloom_frac", "1", "higher", False,
           f"device_ios_per_op on {_A}"),
    Metric("core.scan_busy_us_per_scan", "us", "lower", False,
           f"cpu_us_per_op on {_E}, {_C}; unchanged on {_A}"),
    Metric("core.scan_us_per_hit", "us", "lower", False,
           f"cpu_us_per_op on {_E}, {_C}"),
    Metric("core.scans_per_op", "1", "lower", True,
           f"work share: ~1 on {_E}, 0 on {_A}"),
    Metric("core.records_checked_per_hit", "1", "lower", True,
           f"cpu_us_per_op on {_E}, {_C} (version chains)"),
    Metric("core.pages_decoded_per_scan", "1", "lower", True,
           f"cpu_us_per_op on {_E}, {_C}"),
    Metric("core.pages_skipped_zone_frac", "1", "higher", True,
           f"cpu_us_per_op on {_E}"),
    Metric("core.write_self_us_per_record", "us", "lower", False,
           f"cpu_us_per_op on {_A}, {_T}"),
    Metric("core.evictions", "count", "lower", True,
           f"sim_slowest1pct_us, write_amp on {_A}, {_T}"),
    Metric("core.evict_busy_ms_total", "ms", "lower", False,
           f"cpu_us_per_op on {_A}"),
    Metric("core.merges", "count", "lower", True,
           f"sim_slowest1pct_us, write_amp on {_A}"),
    Metric("core.merge_busy_ms_total", "ms", "lower", False,
           f"cpu_us_per_op on {_A}"),
    Metric("core.gc_purged_records", "count", "higher", True,
           f"space_amp on {_A}, {_T}"),
    Metric("core.index_write_amp", "B/B", "lower", True,
           f"write_amp on {_A}"),
    Metric("core.partitions_end", "count", "lower", True,
           f"sim_p50_us on {_A}"),
    # ---- index: persisted runs + filters
    Metric("index.self_us_per_op", "us", "lower", False,
           f"cpu_us_per_op on {_A}"),
    Metric("index.bloom_probes_per_lookup", "1", "lower", False,
           f"cpu_us_per_op on {_A}"),
    Metric("index.load_page_busy_us_per_page", "us", "lower", False,
           f"cpu_us_per_op on {_E}, {_C}"),
    # ---- buffer
    Metric("buffer.hit_rate", "1", "higher", True,
           f"device_ios_per_op, sim_ops_per_s on {_A}; ~1 on {_E}"),
    Metric("buffer.requests_per_op", "1", "lower", True,
           "cpu_us_per_op on all four"),
    Metric("buffer.evictions_per_op", "1", "lower", True,
           f"device_ios_per_op on {_A}"),
    Metric("buffer.get_self_us_per_request", "us", "lower", False,
           f"cpu_us_per_op on {_E}"),
    Metric("buffer.partition_buffer_evictions", "count", "lower", True,
           f"write_amp on {_A}"),
    # ---- table: SIAS + vacuum
    Metric("table.self_us_per_op", "us", "lower", False,
           "cpu_us_per_op on all four"),
    Metric("table.versions_per_row", "1", "lower", True,
           f"space_amp on {_T}, {_C}"),
    # ---- durability: WAL + manifest + recovery
    Metric("durability.wal_appends_per_commit", "1", "lower", True,
           f"sim_ops_per_s on {_A}, {_T}"),
    Metric("durability.wal_bytes_per_commit", "B", "lower", True,
           f"write_amp on {_A}, {_T} (tail-page rewrite)"),
    Metric("durability.wal_busy_us_per_commit", "us", "lower", False,
           f"cpu_us_per_op on {_A}, {_T}"),
    Metric("durability.manifest_writes", "count", "lower", True,
           f"write_amp on {_A}"),
    Metric("durability.manifest_bytes_written", "B", "lower", True,
           f"write_amp on {_A}"),
    Metric("durability.wal_records_replayed", "count", "lower", False,
           "recover_sim_s"),
    Metric("durability.recover_cpu_s", "s", "lower", False,
           "reported: host cost of recovery"),
    # ---- sim: device
    Metric("sim.reads_per_op", "io/op", "lower", True,
           f"device_ios_per_op, sim_slowest1pct_us on {_A}"),
    Metric("sim.writes_per_op", "io/op", "lower", True,
           f"device_ios_per_op on {_A}, {_T}"),
    Metric("sim.seq_write_frac", "1", "higher", True,
           f"sim_ops_per_s on {_A}"),
    Metric("sim.bytes_read_per_op", "B", "lower", True,
           f"sim_ops_per_s on {_A}"),
    Metric("sim.bytes_written_per_op", "B", "lower", True,
           f"write_amp on {_A}, {_T}"),
    Metric("sim.device_busy_sim_frac", "1", "lower", True,
           f"sim_ops_per_s on {_A}, {_T}"),
    Metric("sim.call_self_us_per_io", "us", "lower", False,
           f"cpu_us_per_op on {_A}"),
    # ---- storage: page files
    Metric("storage.pagefile_self_us_per_io", "us", "lower", False,
           f"cpu_us_per_op on {_A}"),
    Metric("storage.bytes_allocated", "B", "lower", True,
           "space_amp everywhere"),
    # ---- bench: instrument health
    Metric("bench.cpu_raw_us_per_op", "us", "lower", False,
           "reported: cpu_us_per_op before calibration"),
    Metric("bench.calibration_ratio", "1", "lower", False,
           "reported: calibration kernel time / reference (box slowness)"),
    Metric("bench.trace_overhead_ratio", "1", "lower", False,
           "traced / untraced cpu_us_per_op over the same ops"),
    Metric("bench.spans_recorded", "count", "lower", False, "reported"),
    Metric("bench.unattributed_cpu_frac", "1", "lower", False,
           "traced CPU outside every per-op root span; must stay < 0.3"),
)

#: facts that must be equal between two passes over the same op stream
DET_FACTS = ("ops", "aborts", "sim_elapsed_s", "lat_sim_us", "counters",
             "gauges")


# ------------------------------------------------------------- arithmetic

def per(total: float, count: float) -> float:
    return total / count if count else 0.0


def median_iqr_frac(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median of a sample."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cpu_us_per_op(facts: Facts, *, raw: bool = False
                  ) -> tuple[float, float]:
    """Median over the chunks of calibrated CPU time per op (see
    bench/calibrate.py), and the chunk IQR as a share of it."""
    return median_iqr_frac([
        per(c["cpu_ns"] if raw else calibrated(c["cpu_ns"], c["kernel_ns"]),
            c["ops"]) / 1e3
        for c in facts["chunks"]])


def calibration_ratio(facts: Facts) -> float:
    """Mean kernel time around the chunks / the reference box's."""
    return statistics.fmean(
        c["kernel_ns"] for c in facts["chunks"]) / REFERENCE_NS


def setup_s(facts: Facts) -> float:
    """One pass's calibrated set-up CPU seconds."""
    return calibrated(facts["setup_cpu_s"], facts["setup_kernel_ns"])


def end_to_end(facts: Facts, setup_samples: list[float]) -> dict[str, float]:
    c = facts["counters"]
    g = facts["gauges"]
    ops = facts["ops"]
    lat = facts["lat_sim_us"]
    return {
        "setup_s": statistics.median(setup_samples),
        "cpu_us_per_op": cpu_us_per_op(facts)[0],
        "sim_ops_per_s": per(ops, facts["sim_elapsed_s"]),
        "sim_p50_us": lat["p50"],
        "sim_slowest1pct_us": lat["slowest1pct"],
        "device_ios_per_op": per(c["dev.reads"] + c["dev.writes"], ops),
        "write_amp": per(c["dev.bytes_written"], g["user_bytes"]),
        "space_amp": per(g["allocated_bytes"], g["live_bytes"]),
        "recover_sim_s": facts["recover"]["sim_s"],
        "peak_rss_mb": facts["peak_rss_kb"] / 1024.0,
    }


class _Spans:
    """Reads the tracer's per-name aggregates (see bench/trace.py).
    Times come back in calibrated microseconds, like the CPU metrics:
    divided by how slow the box ran during the traced pass."""

    def __init__(self, traced: Facts) -> None:
        self._by_name: dict[str, dict[str, Any]] = traced["spans"]["by_name"]
        self._edges: dict[str, dict[str, float]] = traced["spans"]["edges"]
        self._ns_per_us = 1e3 * calibration_ratio(traced)

    def _pick(self, field: str, *, layer: str | None = None,
              prefix: tuple[str, ...] = (),
              names: tuple[str, ...] = ()) -> float:
        total = 0.0
        for name, agg in self._by_name.items():
            if ((layer is not None and agg["layer"] == layer)
                    or name in names
                    or (prefix and name.startswith(prefix))):
                total += agg[field]
        return total

    def self_us(self, **which: Any) -> float:
        return self._pick("self_ns", **which) / self._ns_per_us

    def dur_us(self, *names: str) -> float:
        return self._pick("dur_ns", names=names) / self._ns_per_us

    def n(self, **which: Any) -> float:
        return self._pick("n", **which)

    def calls(self, name: str) -> float:
        """Generator creations (its spans are one per ``next()``)."""
        agg = self._by_name.get(name)
        return agg["calls"] if agg else 0.0

    def edge_us(self, parent: str, child: str,
                field: str = "dur_ns") -> float:
        edge = self._edges.get(f"{parent}>{child}")
        return edge[field] / self._ns_per_us if edge else 0.0


_SCANS = ("MVPBT.range_scan", "MVPBT.scan_limit", "MVPBT.cursor")
_WRITES = ("MVPBT.insert", "MVPBT.update_nonkey", "MVPBT.update_key",
           "MVPBT.delete")
_GATHERS = ("ShardedDatabase.range_hits_tagged",
            "ShardedDatabase.range_select",
            "ShardedDatabase.pull_index_slices")
_WAL = ("WriteAheadLog.log", "WriteAheadLog.log_group",
        "WriteAheadLog.log_prepare")


def per_layer(plain: Facts, traced: Facts) -> dict[str, float]:
    """Every per-layer metric from one (untraced, traced) pair of passes
    over the same op stream."""
    c = plain["counters"]
    g = plain["gauges"]
    ops = plain["ops"]
    t_ops = traced["ops"]
    s = _Spans(traced)
    tr = traced["tracer"]
    obs = traced["obs"]
    commits = c["txn.committed"]
    speed = calibration_ratio(plain)
    wall, wall_iqr = median_iqr_frac(
        [per(k["ops"], k["wall_ns"] / 1e9) for k in plain["chunks"]])
    searches = s.n(names=("MVPBT.search",))
    probes = s.calls("PersistedRun.search")
    bloom_skips = traced["counters"]["mvpbt.partitions_skipped_bloom"]
    scan_dur = (s.dur_us(*_SCANS)
                - s.edge_us("MVPBT.scan_limit", "MVPBT.cursor"))
    scan_hits = (traced["counters"]["mvpbt.hits_returned"]
                 - tr["search_hits"])
    merge_dur = s.dur_us("MVPBT.merge_partitions")
    wal_dur = (s.dur_us(*_WAL)
               - s.edge_us("WriteAheadLog.log", "WriteAheadLog.log_group"))
    shard_sim = g["shard_sim_s"]
    pages = (c["mvpbt.pages_batch_decoded"] + c["mvpbt.pages_skipped_zonemap"]
             + c["mvpbt.pages_skipped_mints"])
    dev_ios = c["dev.reads"] + c["dev.writes"]
    return {
        "workloads.wall_ops_per_s": wall,
        "workloads.wall_ops_per_s_iqr_frac": wall_iqr,
        "workloads.sim_p99_us": plain["lat_sim_us"]["p99"],
        "workloads.sim_max_us": plain["lat_sim_us"]["max"],
        "workloads.wall_p50_us": plain["lat_wall_us"]["p50"],
        "workloads.wall_p99_us": plain["lat_wall_us"]["p99"],
        "workloads.adapter_self_us_per_op": per(
            s.self_us(layer="workloads") - s.self_us(prefix=("op:",)),
            t_ops),
        "workloads.runner_self_us_per_op": per(
            s.self_us(prefix=("op:",)), t_ops),
        "workloads.oltp_cpu_us_per_txn": per(
            plain["cpu_oltp_ns"] / 1e3 / speed, plain["oltp_txns"]),
        "workloads.olap_cpu_ms_per_query": per(
            plain["cpu_olap_ns"] / 1e6 / speed, plain["olap_queries"]),

        "serve.session_self_us_per_op": per(
            s.self_us(prefix=("ShardSession.", "ShardServer.")), t_ops),
        "serve.calls_per_op": per(
            s.n(prefix=("ShardSession.", "ShardServer."))
            + s.calls("ShardSession.batch_scan"), t_ops),
        "serve.scheduler_acquires_per_op": per(c["scheduler.ticks"], ops),
        "serve.scheduler_wait_us_per_op": per(
            s.dur_us("FairScheduler.acquire"), t_ops),
        "serve.scan_slices_per_scan": per(
            obs.get("serve.scan.slices", 0),
            s.calls("ShardSession.batch_scan")),

        "shard.router_self_us_per_op": per(
            s.self_us(prefix=("ShardedDatabase.",)), t_ops),
        "shard.coordinator_self_us_per_op": per(
            s.self_us(prefix=("ShardCoordinator.",)), t_ops),
        "shard.fanout_per_query": per(
            obs.get("shard.queries.fanout", 0),
            obs.get("shard.queries.point", 0)
            + obs.get("shard.queries.scan", 0)),
        "shard.cross_shard_commit_frac": per(c["coordinator.decisions"],
                                             commits),
        "shard.prepares_per_commit": per(
            obs.get("shard.2pc.prepares", 0),
            traced["counters"]["txn.committed"]),
        "shard.twopc_busy_us_per_cross_commit": per(
            s.edge_us("ShardedDatabase.commit",
                      "ShardCoordinator.log_decision", "parents_dur_ns"),
            s.n(names=("ShardCoordinator.log_decision",))),
        "shard.gather_merge_self_us_per_scan": per(
            s.self_us(names=_GATHERS), s.n(names=_GATHERS)),
        "shard.sim_skew": per(max(shard_sim), statistics.fmean(shard_sim)),

        "engine.executor_self_us_per_op": per(
            s.self_us(layer="engine"), t_ops),
        "engine.calls_per_op": per(s.n(layer="engine"), t_ops),

        "txn.begin_commit_self_us_per_txn": per(
            s.self_us(layer="txn"), t_ops),
        "txn.aborts_frac": per(plain["aborts"], ops),
        "txn.active_snapshots_max": g["active_snapshots_max"],

        "core.search_busy_us_per_lookup": per(
            s.dur_us("MVPBT.search"), searches),
        "core.search_self_us_per_lookup": per(
            s.self_us(names=("MVPBT.search",)), searches),
        "core.searches_per_op": per(c["mvpbt.searches"], ops),
        "core.partitions_probed_per_lookup": per(probes, searches),
        "core.partitions_skipped_bloom_frac": per(
            bloom_skips, bloom_skips + probes),
        "core.scan_busy_us_per_scan": per(
            scan_dur, traced["counters"]["mvpbt.scans"]),
        "core.scan_us_per_hit": per(scan_dur, scan_hits),
        "core.scans_per_op": per(c["mvpbt.scans"], ops),
        "core.records_checked_per_hit": per(
            c["mvpbt.records_checked"], c["mvpbt.hits_returned"]),
        "core.pages_decoded_per_scan": per(
            c["mvpbt.pages_batch_decoded"], c["mvpbt.scans"]),
        "core.pages_skipped_zone_frac": per(
            c["mvpbt.pages_skipped_zonemap"], pages),
        "core.write_self_us_per_record": per(
            s.self_us(names=_WRITES), s.n(names=_WRITES)),
        "core.evictions": c["mvpbt.evictions"],
        "core.evict_busy_ms_total": (
            s.dur_us("MVPBT.evict_partition")
            - s.edge_us("MVPBT.evict_partition",
                        "MVPBT.merge_partitions")) / 1e3,
        "core.merges": c["mvpbt.merges"],
        "core.merge_busy_ms_total": merge_dur / 1e3,
        "core.gc_purged_records": c["mvpbt.gc_purged"],
        "core.index_write_amp": per(c["mvpbt.bytes_written"],
                                    c["mvpbt.bytes_ingested"]),
        "core.partitions_end": g["partitions_end"],

        "index.self_us_per_op": per(s.self_us(layer="index"), t_ops),
        "index.bloom_probes_per_lookup": per(
            s.n(names=("BloomFilter.query",)), searches),
        "index.load_page_busy_us_per_page": per(
            s.dur_us("PersistedRun.load_page"),
            s.n(names=("PersistedRun.load_page",))),

        "buffer.hit_rate": per(c["pool.hits"], c["pool.requests"]),
        "buffer.requests_per_op": per(c["pool.requests"], ops),
        "buffer.evictions_per_op": per(c["pool.evictions"], ops),
        "buffer.get_self_us_per_request": per(
            s.self_us(layer="buffer"), s.n(layer="buffer")),
        "buffer.partition_buffer_evictions": c["partition_buffer.evictions"],

        "table.self_us_per_op": per(s.self_us(layer="table"), t_ops),
        "table.versions_per_row": per(g["versions"], g["live_rows"]),

        "durability.wal_appends_per_commit": per(c["wal.appends"], commits),
        "durability.wal_bytes_per_commit": per(c["wal.bytes_written"],
                                               commits),
        "durability.wal_busy_us_per_commit": per(
            wal_dur, traced["counters"]["txn.committed"]),
        "durability.manifest_writes": c["manifest.flips"],
        "durability.manifest_bytes_written": c["manifest.bytes_written"],
        "durability.wal_records_replayed": obs.get(
            "recovery.wal_records_replayed", 0),
        "durability.recover_cpu_s": plain["recover"]["cpu_s"],

        "sim.reads_per_op": per(c["dev.reads"], ops),
        "sim.writes_per_op": per(c["dev.writes"], ops),
        "sim.seq_write_frac": per(c["dev.seq_writes"], c["dev.writes"]),
        "sim.bytes_read_per_op": per(c["dev.bytes_read"], ops),
        "sim.bytes_written_per_op": per(c["dev.bytes_written"], ops),
        "sim.device_busy_sim_frac": per(c["dev.busy_s"], sum(shard_sim)),
        "sim.call_self_us_per_io": per(
            s.self_us(layer="sim"), s.n(layer="sim")),

        "storage.pagefile_self_us_per_io": per(
            s.self_us(layer="storage"), s.n(layer="storage")),
        "storage.bytes_allocated": g["allocated_bytes"],

        "bench.cpu_raw_us_per_op": cpu_us_per_op(plain, raw=True)[0],
        "bench.calibration_ratio": speed,
        "bench.trace_overhead_ratio": per(
            cpu_us_per_op(traced)[0], cpu_us_per_op(plain)[0]),
        "bench.spans_recorded": tr["spans"],
        "bench.unattributed_cpu_frac": 1.0 - per(
            tr["root_cpu_ns"], sum(k["cpu_ns"] for k in traced["chunks"])),
    }


def det_mismatches(a: Facts, b: Facts) -> list[str]:
    """Names of deterministic facts that differ between two passes over
    the same op stream (must be empty)."""
    return [key for key in DET_FACTS if a[key] != b[key]]


# --------------------------------------------------------- BENCHMARK.json

def benchmark_json(workloads: list[tuple[str, str]],
                   run_seconds: int) -> dict[str, Any]:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    from bench.workloads import RUN_SECONDS, SPECS
    json.dump(benchmark_json([(s.name, s.why) for s in SPECS.values()],
                             RUN_SECONDS), sys.stdout, indent=2)
    sys.stdout.write("\n")
