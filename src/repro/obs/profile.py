"""Per-query profiles (``Database.explain``-style).

:func:`profile_query` runs one lookup or range scan through the normal
executor path and reports what it cost: partitions consulted vs. skipped
per filter kind, visibility-check outcomes, buffer-pool pages pinned, and
the simulated device I/O the query caused.  The profile is computed from
before/after snapshots of the engine's own counters — no extra
instrumentation runs on the hot path, so profiling a query costs the query
itself plus a handful of dict reads.

Interpretation notes (DESIGN.md §13):

* ``partitions.consulted`` counts the partitions *not ruled out* by the
  min-timestamp / range / bloom filters (including the in-memory ``P_N``);
  a point lookup that stops at its first visible hit may touch fewer.
* ``visibility.invisible`` is derived (``checked - visible - flagged``,
  floored at 0): reconciled ``REGULAR_SET`` records pass the checker once
  but can yield several visible entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..types import JSONDict, Key

if TYPE_CHECKING:
    from ..core.tree import MVPBT
    from ..engine.database import Database
    from ..txn.transaction import Transaction


def _tree_snapshot(tree: "MVPBT") -> dict[str, int]:
    stats = tree.stats
    return {
        "searches": stats.searches,
        "scans": stats.scans,
        "hits_returned": stats.hits_returned,
        "records_checked": stats.records_checked,
        "skipped_bloom": stats.partitions_skipped_bloom,
        "skipped_mints": stats.partitions_skipped_mints,
        "skipped_range": stats.partitions_skipped_range,
        "pages_batch_decoded": stats.pages_batch_decoded,
        "pages_skipped_zonemap": stats.pages_skipped_zonemap,
        "pages_skipped_mints": stats.pages_skipped_mints,
        "zero_copy_bytes": stats.zero_copy_bytes,
        "flagged": tree.gc_stats.flagged,
    }


def profile_query(db: "Database", txn: "Transaction", index_name: str, *,
                  key: Key | None = None,
                  lo: Key | None = None, hi: Key | None = None,
                  lo_incl: bool = True, hi_incl: bool = True) -> JSONDict:
    """Run one query and report its cost profile.

    With ``key`` the query is a point lookup; otherwise a range scan over
    ``[lo, hi]``.  The query runs for real — its rows are fetched, its
    results are part of the profile — and all engine state advances
    exactly as a non-profiled query would.
    """
    ix = db.catalog.index(index_name)
    device = db.device.stats
    dev0 = {"reads": device.seq_reads + device.rand_reads,
            "writes": device.seq_writes + device.rand_writes,
            "bytes_read": device.bytes_read,
            "bytes_written": device.bytes_written}
    pool0 = db.pool.total_stats()
    tree0 = _tree_snapshot(ix.mvpbt) if ix.is_mvpbt else None
    t0 = db.clock.now

    if key is not None:
        op = "lookup"
        rows = len(db.executor.lookup_rows(txn, ix, tuple(key)))
    else:
        op = "range_scan"
        rows = len(db.executor.scan_rows(txn, ix, lo, hi,
                                         lo_incl=lo_incl, hi_incl=hi_incl))

    pool1 = db.pool.total_stats()
    profile: JSONDict = {
        "op": op,
        "index": index_name,
        "kind": ix.kind,
        "rows": rows,
        "sim_seconds": db.clock.now - t0,
        "buffer": {
            "pages_pinned": pool1.requests - pool0.requests,
            "hits": pool1.hits - pool0.hits,
            "misses": ((pool1.requests - pool1.hits)
                       - (pool0.requests - pool0.hits)),
        },
        "io": {
            "reads": device.seq_reads + device.rand_reads - dev0["reads"],
            "writes": (device.seq_writes + device.rand_writes
                       - dev0["writes"]),
            "bytes_read": device.bytes_read - dev0["bytes_read"],
            "bytes_written": (device.bytes_written
                              - dev0["bytes_written"]),
        },
    }

    if tree0 is not None:
        tree = ix.mvpbt
        tree1 = _tree_snapshot(tree)
        delta = {name: tree1[name] - tree0[name] for name in tree1}
        skipped = (delta["skipped_bloom"] + delta["skipped_mints"]
                   + delta["skipped_range"])
        visible = delta["hits_returned"]
        flagged = delta["flagged"]
        invisible = max(0,
                        delta["records_checked"] - visible - flagged)
        profile["partitions"] = {
            "total": tree.partition_count,
            "consulted": tree.partition_count - skipped,
            "skipped_bloom": delta["skipped_bloom"],
            "skipped_mints": delta["skipped_mints"],
            "skipped_range": delta["skipped_range"],
            "prune_reasons": {
                "bloom": delta["skipped_bloom"],
                "zone-map": delta["skipped_range"],
                "min-ts": delta["skipped_mints"],
            },
        }
        profile["visibility"] = {
            "checked": delta["records_checked"],
            "visible": visible,
            "invisible": invisible,
            "garbage_flagged": flagged,
        }
        profile["scan_pipeline"] = {
            "pages_batch_decoded": delta["pages_batch_decoded"],
            "pages_skipped_zonemap": delta["pages_skipped_zonemap"],
            "pages_skipped_mints": delta["pages_skipped_mints"],
            "zero_copy_bytes": delta["zero_copy_bytes"],
        }

    if db.obs is not None:
        db.obs.tracer.emit("query.profile", op=op, index=index_name,
                           rows=rows)
    return profile
