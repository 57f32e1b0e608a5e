#!/usr/bin/env python3
"""Version-chain microbenchmark: why version-oblivious indexes degrade.

Grows one tuple's version chain step by step while a long-running reader
pins every version, and measures — per index type — what a single point
query under the old snapshot costs (buffered base-table requests and
simulated microseconds).  This is the mechanism behind the paper's
Figure 3 collapse.

Run:  python examples/version_chain_microbenchmark.py
"""

from repro.bench.reporting import print_series
from repro.config import EngineConfig
from repro.engine import Database

CHAIN_LENGTHS = [1, 5, 10, 20, 40]


def build(kind: str) -> Database:
    db = Database(EngineConfig(buffer_pool_pages=48,
                               partition_buffer_bytes=32 * 8192))
    db.create_table("r", [("a", "int"), ("z", "str")], storage="sias")
    db.create_index("ix", "r", ["a"], kind=kind)
    txn = db.begin()
    for i in range(2000):
        db.insert(txn, "r", (i, "x" * 300))
    txn.commit()
    db.flush_all()
    return db


def probe_costs(kind: str) -> tuple[list[float], list[int]]:
    db = build(kind)
    reader = db.begin()            # pins every later version
    times, requests = [], []
    chain = 1
    table_file = db.catalog.table("r").file
    for target in CHAIN_LENGTHS:
        while chain < target:
            t = db.begin()
            db.update_by_key(t, "ix", (777,), {"z": f"v{chain}"})
            t.commit()
            chain += 1
        # evict table pages so chain walks pay real I/O, as they would
        # when the dataset dwarfs the buffer
        db.flush_all()
        before_req = db.pool.stats_for(table_file).requests
        t0 = db.clock.now
        rows = db.select(reader, "ix", (777,))
        assert rows == [(777, "x" * 300)]
        times.append((db.clock.now - t0) * 1e6)
        requests.append(db.pool.stats_for(table_file).requests - before_req)
    reader.commit()
    return times, requests


def main() -> None:
    series_time = {}
    series_req = {}
    for kind in ("btree", "pbt", "mvpbt"):
        times, requests = probe_costs(kind)
        series_time[kind] = times
        series_req[kind] = [float(r) for r in requests]
        print(f"{kind}: done")

    print_series("Point query under an old snapshot: simulated µs",
                 "chain length", CHAIN_LENGTHS, series_time)
    print_series("... and base-table page requests per query",
                 "chain length", CHAIN_LENGTHS, series_req)
    print("MV-PBT answers from the index alone (0-1 table requests to fetch "
          "the row);\nversion-oblivious indexes walk the chain in the base "
          "table — cost grows with chain length.")


if __name__ == "__main__":
    main()
