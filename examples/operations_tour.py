#!/usr/bin/env python3
"""Operations tour: bulk load, partition inspection, on-line merge, vacuum.

A downstream-user walkthrough of the operational surface beyond plain DML:

1. bulk-load an MV-PBT straight into a persisted partition;
2. churn the data to grow partitions; inspect them with ``describe()``;
3. run an on-line partition merge (the paper's "system-transaction merge
   step") and watch dead versions disappear;
4. dump a partition leaf through the on-disk serialisation codec;
5. vacuum the base table and read the engine-wide ``stats()`` snapshot.

Run:  python examples/operations_tour.py
"""

from repro.config import EngineConfig
from repro.core.serialization import decode_leaf_batch, encode_leaf_batch
from repro.engine import Database


def main() -> None:
    db = Database(EngineConfig(buffer_pool_pages=128,
                               partition_buffer_bytes=4 * 8192))
    db.create_table("events", [("id", "int"), ("payload", "str")],
                    storage="sias")
    db.create_index("ix", "events", ["id"], kind="mvpbt")
    ix = db.catalog.index("ix").mvpbt

    # -- 1. bulk load -------------------------------------------------------
    txn = db.begin()
    rows = [(i, f"seed-{i}") for i in range(2000)]
    rids = []
    for row in rows:
        _vid, rid = db.catalog.table("events").store.insert(txn, row)
        rids.append(rid)
    ix.bulk_load(txn, [((row[0],), rid, i + 1)
                       for i, (row, rid) in enumerate(zip(rows, rids))])
    txn.commit()
    print(f"bulk-loaded {len(rows)} rows into "
          f"{ix.partition_count - 1} persisted partition(s)")

    # -- 2. churn + inspect -------------------------------------------------
    for i in range(2000):
        t = db.begin()
        db.update_by_key(t, "ix", (i,), {"payload": f"updated-{i}"})
        t.commit()
    ix.evict_partition()
    desc = ix.describe()
    print(f"after churn: {len(desc['persisted_partitions'])} persisted "
          f"partitions, P_N holds {desc['memory_partition']['records']} "
          f"records, GC purged {desc['gc']['purged_eviction']} at evictions")

    # -- 3. on-line merge ---------------------------------------------------
    before = sum(p["records"] for p in desc["persisted_partitions"])
    merged = ix.merge_partitions()
    print(f"merge: {before} records in "
          f"{len(desc['persisted_partitions'])} partitions -> "
          f"{merged.record_count} records in 1 partition")

    # -- 4. wire-format dump ------------------------------------------------
    leaf_records = list(merged.run.iter_all())[:3]
    image = encode_leaf_batch(leaf_records, partition_no=merged.number)
    decoded = decode_leaf_batch(image).to_records()
    assert decoded == leaf_records
    print(f"first leaf prefix serialises to {len(image)} bytes; "
          f"decodes back to {len(decoded)} records, e.g. "
          f"{decoded[0].rtype.name} at key {decoded[0].key}")

    # -- 5. vacuum + stats --------------------------------------------------
    result = db.vacuum("events")
    stats = db.stats()
    print(f"vacuum removed {result.versions_removed} dead versions, "
          f"freed {result.pages_freed} pages")
    print(f"engine totals: {stats['transactions']['committed']} commits, "
          f"{stats['device']['seq_writes']} sequential / "
          f"{stats['device']['rand_writes']} random writes, "
          f"buffer hit rate {stats['buffer_pool']['hit_rate']:.1%}, "
          f"{stats['sim_time_seconds'] * 1000:.1f} sim-ms elapsed")


if __name__ == "__main__":
    main()
