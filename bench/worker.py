"""One pass of one workload, in a process of its own.

``bench/run.py`` starts this module as ``python -m bench.worker`` with
``PYTHONHASHSEED=0`` and reads the pass's *facts* — one JSON object — from
the last line of standard output.  A pass sets the workload up, warms it,
runs the timed chunks (with the span tracer installed when ``--traced``),
checks the outputs, cuts the power, recovers and checks again.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from time import perf_counter_ns, process_time, process_time_ns
from typing import Any

from . import client
from .calibrate import Calibrator, maxrss_kb
from .trace import Tracer
from .workloads import SPECS, Driver


SETUP_ONLY_KERNEL_SAMPLES = 6


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _latencies_us(stamps: Any, start: float, scale: float
                  ) -> dict[str, float]:
    """Inter-completion times: each op's stamp minus the one before."""
    gaps = []
    prev = start
    for stamp in stamps:
        gaps.append((stamp - prev) * scale)
        prev = stamp
    gaps.sort()
    slowest = gaps[-max(1, len(gaps) // 100):]
    return {"p50": statistics.median(gaps), "p99": _percentile(gaps, 0.99),
            "slowest1pct": statistics.fmean(slowest), "max": gaps[-1],
            "samples": len(gaps)}


def _delta(after: dict[str, float], before: dict[str, float]
           ) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def run_pass(workload: str, seed: int, chunks: int, scale: float,
             traced: bool, setup_only: bool,
             spans_out: str | None) -> dict[str, Any]:
    spec = SPECS[workload]
    kernel = Calibrator()   # first: its memory is subtracted from the peak
    gc.collect()
    cpu0 = process_time()
    driver: Driver = spec.driver(spec, seed, scale, obs=traced)
    driver.load()
    setup_cpu_s = process_time() - cpu0
    kernel.sample()
    cpu0 = process_time()
    driver.run_chunk()      # warm-up: one chunk, not timed
    setup_cpu_s += process_time() - cpu0
    kernel_ns = kernel.sample()
    facts: dict[str, Any] = {
        "workload": workload, "seed": seed, "traced": traced,
        "setup_cpu_s": setup_cpu_s, "config": driver.describe()}
    target = driver.target
    if setup_only:
        # set-up is one short stretch of work; one or two kernel samples
        # next to it are too few to tell how fast the box was.  Take more,
        # each after engine work that leaves the caches cold again
        for _ in range(SETUP_ONLY_KERNEL_SAMPLES):
            client.index_digests(target)
            kernel.sample()
        facts["setup_kernel_ns"] = statistics.median(kernel.samples)
        driver.close()
        return facts

    backend = driver.backend
    recorder = backend.recorder
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
        recorder.tracer = tracer
    driver.start_timed_phase()
    before = client.snapshot(target, driver.scheduler_ticks())
    obs_before = client.obs_counters(target)
    shard_sim0 = [db.clock.now for db in client.databases(target)]
    sim0 = backend.sim_now
    wall0 = perf_counter_ns()
    chunk_facts = []
    try:
        for _ in range(chunks):
            ops0, cpu_ns0, w0 = (recorder.ops, process_time_ns(),
                                 perf_counter_ns())
            driver.run_chunk()
            chunk = {"ops": recorder.ops - ops0,
                     "cpu_ns": process_time_ns() - cpu_ns0,
                     "wall_ns": perf_counter_ns() - w0}
            # the box's speed around this chunk: the kernel sample taken
            # after the work before it, and the one after it
            kernel_before, kernel_ns = kernel_ns, kernel.sample()
            chunk["kernel_ns"] = (kernel_before + kernel_ns) / 2
            chunk_facts.append(chunk)
    finally:
        if tracer is not None:
            recorder.tracer = None
            tracer.uninstall()
    after = client.snapshot(target, driver.scheduler_ticks())
    obs_after = client.obs_counters(target)
    # the measured pass has a sample per chunk to judge the box by
    facts["setup_kernel_ns"] = statistics.median(kernel.samples)
    peak_rss_kb = maxrss_kb() - kernel.rss_kb

    facts.update({
        "ops": recorder.ops, "chunks": chunk_facts,
        "sim_elapsed_s": backend.sim_now - sim0,
        "lat_sim_us": _latencies_us(recorder.done_sim_s, sim0, 1e6),
        "lat_wall_us": _latencies_us(recorder.done_wall_ns, wall0, 1e-3),
        "counters": _delta(after, before),
        "peak_rss_kb": peak_rss_kb,
        "cpu_oltp_ns": driver.cpu_oltp_ns, "oltp_txns": driver.oltp_txns,
        "cpu_olap_ns": driver.cpu_olap_ns,
        "olap_queries": driver.olap_queries,
    })
    gauges = client.gauges(target)
    gauges["user_bytes"] = recorder.user_bytes
    gauges["active_snapshots_max"] = recorder.active_max
    gauges["shard_sim_s"] = [
        db.clock.now - t0
        for db, t0 in zip(client.databases(target), shard_sim0)]

    # ---- output checks on the committed state, then crash and recover
    errors, live_rows, live_bytes = driver.check()
    gauges.update(live_rows=live_rows, live_bytes=live_bytes,
                  versions=client.version_count(target))
    facts["gauges"] = gauges
    facts["aborts"] = driver.aborts
    facts["failed"] = driver.failed
    digests = client.index_digests(target)
    driver.close()
    recovered, recover_sim_s, recover_cpu_s = client.power_cut_and_recover(
        target)
    if client.index_digests(recovered) != digests:
        errors.append("an index answers differently after power cut + "
                      "recovery than before it")
    facts["recover"] = {"sim_s": recover_sim_s, "cpu_s": recover_cpu_s}

    if tracer is not None:
        # the timed phase's window only; recovery's own counter comes
        # from the registry the recovered instance took over
        facts["obs"] = _delta(obs_after, obs_before)
        replayed = "recovery.wal_records_replayed"
        facts["obs"][replayed] = (
            client.obs_counters(recovered).get(replayed, 0)
            - obs_after.get(replayed, 0))
        facts["spans"] = tracer.aggregate()
        errors.extend(facts["spans"].pop("errors"))
        facts["tracer"] = {
            "spans": len(tracer.start), "inner_ns": tracer.inner_ns,
            "outer_ns": tracer.outer_ns,
            "search_hits": tracer.search_hits,
            "root_cpu_ns": tracer.root_cpu_ns}
        if spans_out:
            tracer.write_jsonl(spans_out)
    facts["errors"] = errors
    return facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chunks", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    facts = run_pass(args.workload, args.seed, args.chunks, args.scale,
                     args.traced, args.setup_only, args.spans_out)
    sys.stdout.write(json.dumps(facts) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
