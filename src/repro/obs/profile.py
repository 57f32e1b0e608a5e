"""Per-query profiles (``Database.explain``-style).

:func:`profile_query` runs one range scan through the normal
executor path and reports what it cost: partitions consulted vs. skipped
per filter kind, visibility-check outcomes, buffer-pool pages pinned, and
the simulated device I/O the query caused.  The profile diffs the same
per-component sources the metrics registry reads — the buffer pool's, the
device's and the tree's (DESIGN.md §13.2) — called directly before and
after the query, so it works with the registry off; no extra
instrumentation runs on the hot path, and profiling a query costs the
query itself plus a handful of dict reads.

Interpretation notes (DESIGN.md §13):

* ``partitions.consulted`` counts the partitions *not ruled out* by the
  min-timestamp / range / bloom filters (including the in-memory ``P_N``).
* ``visibility.invisible`` is derived (``checked - visible - flagged``,
  floored at 0): reconciled ``REGULAR_SET`` records pass the checker once
  but can yield several visible entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..types import JSONDict, Key
from .core import device_metrics

if TYPE_CHECKING:
    from ..core.tree import MVPBT
    from ..engine.database import Database
    from ..txn.transaction import Transaction
    from .registry import Metrics


def _sources(db: "Database", tree: "MVPBT | None") -> "Metrics":
    """The sources a profile diffs, plus the tree's visibility counts
    (which the registry does not export)."""
    from ..core.tree import tree_metrics    # core imports obs
    counts = {**db.pool.metrics(), **device_metrics(db.device)}
    if tree is not None:
        counts.update(tree_metrics([tree]),
                      checked=tree.stats.records_checked,
                      visible=tree.stats.hits_returned,
                      flagged=tree.gc_stats.flagged)
    return counts


def profile_query(db: "Database", txn: "Transaction", index_name: str,
                  lo: Key | None, hi: Key | None, *,
                  lo_incl: bool = True, hi_incl: bool = True) -> JSONDict:
    """Run one range scan over ``[lo, hi]`` and report its cost profile.

    The query runs for real — its rows are fetched, its results are part
    of the profile — and all engine state advances exactly as a
    non-profiled query would.
    """
    ix = db.catalog.index(index_name)
    tree = ix.mvpbt if ix.is_mvpbt else None
    before = _sources(db, tree)
    t0 = db.clock.now
    rows = len(db.executor.scan_rows(txn, ix, lo, hi,
                                     lo_incl=lo_incl, hi_incl=hi_incl))

    after = _sources(db, tree)
    delta = {name: after[name] - before[name] for name in after}
    profile: JSONDict = {
        "op": "range_scan",
        "index": index_name,
        "kind": ix.kind,
        "rows": rows,
        "sim_seconds": db.clock.now - t0,
        "buffer": {
            "pages_pinned": delta["buffer.pool.lookups"],
            "hits": delta["buffer.pool.hits"],
            "misses": delta["buffer.pool.misses"],
        },
        "io": {name: delta[f"device.{name}"] for name in (
            "reads", "writes", "bytes_read", "bytes_written")},
    }

    if tree is not None:
        bloom = delta["mvpbt.prune.bloom"]
        mints = delta["mvpbt.prune.min_ts"]
        zone = delta["mvpbt.prune.zone_map"]
        visible = delta["visible"]
        flagged = delta["flagged"]
        profile["partitions"] = {
            "total": tree.partition_count,
            "consulted": tree.partition_count - (bloom + mints + zone),
            "skipped_bloom": bloom,
            "skipped_mints": mints,
            "skipped_range": zone,
            "prune_reasons": {"bloom": bloom, "zone-map": zone,
                              "min-ts": mints},
        }
        profile["visibility"] = {
            "checked": delta["checked"],
            "visible": visible,
            "invisible": max(0, delta["checked"] - visible - flagged),
            "garbage_flagged": flagged,
        }
        profile["scan_pipeline"] = {
            "pages_batch_decoded": delta["mvpbt.scan.pages_batch_decoded"],
            "pages_skipped_zonemap": delta[
                "mvpbt.scan.pages_skipped_zone_map"],
            "pages_skipped_mints": delta["mvpbt.scan.pages_skipped_min_ts"],
            "zero_copy_bytes": delta["mvpbt.scan.zero_copy_bytes"],
        }

    if db.obs is not None:
        db.obs.tracer.emit("query.profile", op="range_scan",
                           index=index_name, rows=rows)
    return profile
