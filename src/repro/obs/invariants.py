"""Cross-component identities the observability layer can check.

A registry counter for a fact the engine keeps is a *view* of the engine's
own count (DESIGN.md §13.2) and cannot disagree with it, so nothing here
compares the two.  :func:`check_invariants` checks identities *between*
components, or between an instrument and the count it pairs with, and
returns the violations (empty = consistent).

Validity note: an instrument is cumulative over the facade's lifetime,
while a view reads the engine as it is now, and
:meth:`~repro.engine.database.Database.recover` rebuilds the transaction
manager (``committed_count`` *restored*), the log and the trees.  Call
this on instances that have **not** been through recovery — nor on a
shard behind a router, which flips the shard's untouched and two-phase
commits itself; the open-span check alone holds everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .registry import Histogram

if TYPE_CHECKING:
    from ..engine.database import Database


def check_invariants(db: "Database") -> list[str]:
    """Cross-component identities; returns violation messages."""
    obs = db.obs
    if obs is None:
        return ["observability is disabled (db.obs is None)"]
    violations: list[str] = []

    def expect(label: str, got: object, want: object) -> None:
        if got != want:
            violations.append(f"{label}: {got!r} != {want!r}")

    reg = obs.registry
    if reg.enabled:
        committed = db.txn.committed_count
        if db.durability is not None:
            expect("txn.commit.count (== COMMIT markers + elided)",
                   committed, db.durability.wal.commit_markers
                   + reg.counter_value("wal.commits_elided"))

        # a histogram observed once per counted operation
        scans = sum(ix.mvpbt.stats.scans
                    for ix in db.catalog.indexes if ix.is_mvpbt)
        for name, paired in (("txn.commit.latency_us", committed),
                             ("mvpbt.scan.hits", scans)):
            hist = reg.get(name)
            if isinstance(hist, Histogram):
                expect(f"{name}.count (== paired count)", hist.count,
                       paired)
            elif paired:
                violations.append(f"{name} histogram missing")

    if obs.tracer.open_spans != 0:
        violations.append(
            f"tracer: {obs.tracer.open_spans} spans still open")
    return violations
