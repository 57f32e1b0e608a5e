"""Own-clock time of a served workload's ops (ROADMAP Fact 3).

Each shard keeps its own simulated clock and a router's time is their
maximum, so a served pass's ``sim_ops_per_s`` and ``sim_p50_us`` read the
busiest clock, not what one closed-loop client's op cost.  This probe runs
one ``bench`` workload pass in-process, patches
``bench.client.Recorder.end_op`` from outside (nothing under ``bench/``
changes), and takes every clock's advance between two op completions:

* own-clock p50 / p99: an op's advances summed over the clocks — one
  client runs its legs one after another;
* parallel bound: ops per second if each op's legs overlapped,
  ``ops / sum(per-op max advance)``;
* series bound: ``ops / sum(all advances)``.

    PYTHONPATH=src python -m tools.own_clock --workload tpcc_served4 \\
        --seed 11 --seconds 10

Prints one JSON object.  Like the bench pass, it loads, runs one warm-up
chunk, then times ``--seconds`` worth of chunks.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Any

from bench import client
from bench.workloads import SPECS, chunk_count
from repro.shard.router import ShardedDatabase


def measure(workload: str, seed: int, chunks: int,
            scale: float = 1.0) -> dict[str, Any]:
    spec = SPECS[workload]
    driver = spec.driver(spec, seed, scale, obs=False)
    driver.load()
    driver.run_chunk()                       # warm-up, not timed
    target = driver.target
    clocks = [db.clock for db in client.databases(target)]
    if isinstance(target, ShardedDatabase):
        clocks.append(target.clock)
    last = [clock.now for clock in clocks]
    series: list[float] = []                 # per op: sum of advances
    widest: list[float] = []                 # per op: max advance
    end_op = client.Recorder.end_op

    def stamped(recorder: client.Recorder) -> None:
        nonlocal last
        now = [clock.now for clock in clocks]
        steps = [b - a for a, b in zip(last, now)]
        series.append(sum(steps))
        widest.append(max(steps))
        last = now
        end_op(recorder)

    client.Recorder.end_op = stamped  # type: ignore[method-assign]
    try:
        for _ in range(chunks):
            driver.run_chunk()
    finally:
        client.Recorder.end_op = end_op  # type: ignore[method-assign]
        driver.close()
    ordered = sorted(series)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return {"workload": workload, "seed": seed, "ops": len(series),
            "own_p50_us": statistics.median(ordered) * 1e6,
            "own_p99_us": p99 * 1e6,
            "parallel_ops_per_s": len(series) / sum(widest),
            "series_ops_per_s": len(series) / sum(series)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="tpcc_served4",
                        choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    chunks = chunk_count(SPECS[args.workload], args.seconds, traced=False)
    print(json.dumps(measure(args.workload, args.seed, chunks, args.scale)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
