"""Cross-checks between the metrics registry and the engine's own counters.

Every instrument is recorded on the same code path as the engine counter it
shadows, so on any obs-enabled instance the registry and the engine must
agree *exactly*.  :func:`check_invariants` returns the list of violations
(empty = consistent); integration tests assert it after whole scenarios.

Validity note: call this on instances that have **not** been through
:meth:`~repro.engine.database.Database.recover`.  Recovery rebuilds the
transaction manager and trees from durable state (``committed_count`` is
*restored*, tree stats restart at zero) while the obs registry deliberately
keeps counting across the crash — the cumulative totals diverge from the
rebuilt engine counters by design.  The commit-accounting identity
(every commit either appended a COMMIT marker or was elided) is that of a
standalone :class:`~repro.engine.database.Database`; a shard behind a
router has its untouched and two-phase commits flipped by the router, so
do not call this on a shard either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .registry import Histogram

if TYPE_CHECKING:
    from ..engine.database import Database


def check_invariants(db: "Database") -> list[str]:
    """Registry ↔ engine cross-invariants; returns violation messages."""
    obs = db.obs
    if obs is None:
        return ["observability is disabled (db.obs is None)"]
    violations: list[str] = []

    def expect(label: str, got: object, want: object) -> None:
        if got != want:
            violations.append(f"{label}: registry={got!r} engine={want!r}")

    reg = obs.registry
    if reg.enabled:
        cv = reg.counter_value

        lookups = cv("buffer.pool.lookups")
        hits = cv("buffer.pool.hits")
        misses = cv("buffer.pool.misses")
        if hits + misses != lookups:
            violations.append(
                f"buffer.pool: hits({hits}) + misses({misses}) != "
                f"lookups({lookups})")
        pool_total = db.pool.total_stats()
        expect("buffer.pool.lookups", lookups, pool_total.requests)
        expect("buffer.pool.hits", hits, pool_total.hits)
        expect("buffer.pool.evictions", cv("buffer.pool.evictions"),
               db.pool.evictions)
        expect("buffer.pool.writebacks", cv("buffer.pool.writebacks"),
               db.pool.dirty_writebacks)

        device = db.device.stats
        expect("device.reads", cv("device.reads"),
               device.seq_reads + device.rand_reads)
        expect("device.writes", cv("device.writes"),
               device.seq_writes + device.rand_writes)
        expect("device.bytes_read", cv("device.bytes_read"),
               device.bytes_read)
        expect("device.bytes_written", cv("device.bytes_written"),
               device.bytes_written)

        expect("txn.begin.count", cv("txn.begin.count"),
               db.txn.committed_count + db.txn.aborted_count
               + len(db.txn.active_transactions))
        expect("txn.commit.count", cv("txn.commit.count"),
               db.txn.committed_count)
        expect("txn.abort.count", cv("txn.abort.count"),
               db.txn.aborted_count)
        latency = reg.get("txn.commit.latency_us")
        if isinstance(latency, Histogram):
            expect("txn.commit.latency_us.count", latency.count,
                   db.txn.committed_count)
        elif db.txn.committed_count:
            violations.append("txn.commit.latency_us histogram missing")

        if db.durability is not None:
            wal = db.durability.wal
            expect("wal.appends", cv("wal.appends"), wal.appends)
            expect("wal.bytes_appended", cv("wal.bytes_appended"),
                   wal.bytes_written)
            expect("txn.commit.count (== COMMIT markers + elided)",
                   cv("txn.commit.count"),
                   wal.commit_markers + cv("wal.commits_elided"))

        trees = [ix.mvpbt for ix in db.catalog.indexes if ix.is_mvpbt]
        expect("mvpbt.search.count", cv("mvpbt.search.count"),
               sum(t.stats.searches for t in trees))
        scans = cv("mvpbt.scan.count")
        expect("mvpbt.scan.count", scans,
               sum(t.stats.scans for t in trees))
        expect("mvpbt.evict.count", cv("mvpbt.evict.count"),
               sum(t.stats.evictions for t in trees))
        expect("mvpbt.merge.count", cv("mvpbt.merge.count"),
               sum(t.stats.merges for t in trees))
        expect("mvpbt.bulk_load.count", cv("mvpbt.bulk_load.count"),
               sum(t.stats.bulk_loads for t in trees))
        expect("mvpbt.gc.purged_page_level",
               cv("mvpbt.gc.purged_page_level"),
               sum(t.gc_stats.purged_page_level for t in trees))
        expect("mvpbt.scan.pages_batch_decoded",
               cv("mvpbt.scan.pages_batch_decoded"),
               sum(t.stats.pages_batch_decoded for t in trees))
        expect("mvpbt.scan.zero_copy_bytes",
               cv("mvpbt.scan.zero_copy_bytes"),
               sum(t.stats.zero_copy_bytes for t in trees))
        expect("mvpbt.scan.pages_skipped_zone_map",
               cv("mvpbt.scan.pages_skipped_zone_map"),
               sum(t.stats.pages_skipped_zonemap for t in trees))
        expect("mvpbt.scan.pages_skipped_min_ts",
               cv("mvpbt.scan.pages_skipped_min_ts"),
               sum(t.stats.pages_skipped_mints for t in trees))
        # every partition-prune decision carries exactly one reason, so
        # the per-reason counters must reproduce the engine's skip stats
        # and their sum must equal the total partitions skipped
        prune_bloom = cv("mvpbt.prune.bloom")
        prune_zone = cv("mvpbt.prune.zone_map")
        prune_mints = cv("mvpbt.prune.min_ts")
        expect("mvpbt.prune.bloom", prune_bloom,
               sum(t.stats.partitions_skipped_bloom for t in trees))
        expect("mvpbt.prune.zone_map", prune_zone,
               sum(t.stats.partitions_skipped_range for t in trees))
        expect("mvpbt.prune.min_ts", prune_mints,
               sum(t.stats.partitions_skipped_mints for t in trees))
        expect("mvpbt.prune.* sum (== partitions skipped)",
               prune_bloom + prune_zone + prune_mints,
               sum(t.stats.partitions_skipped_bloom
                   + t.stats.partitions_skipped_range
                   + t.stats.partitions_skipped_mints for t in trees))
        scan_hits = reg.get("mvpbt.scan.hits")
        if isinstance(scan_hits, Histogram):
            expect("mvpbt.scan.hits.count (== scan counter)",
                   scan_hits.count, scans)
        elif scans:
            violations.append("mvpbt.scan.hits histogram missing")

    if obs.tracer.open_spans != 0:
        violations.append(
            f"tracer: {obs.tracer.open_spans} spans still open")
    return violations
