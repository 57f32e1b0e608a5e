"""Snapshot predicates shared by the stores and the index.

The version-oblivious path that reads the base table per candidate is
:meth:`~repro.table.base.VersionStore.resolve`; here are the predicates it
and MV-PBT's index-only check (:mod:`repro.core.visibility`) rest on.
"""

from __future__ import annotations

from ..txn.snapshot import Snapshot
from ..txn.status import CommitLog
from .base import TupleVersion


def all_visible_before(snapshot: Snapshot, commit_log: CommitLog) -> int:
    """Committed-visible watermark of ``snapshot``: every timestamp strictly
    below the returned value is a committed transaction whose effect the
    snapshot sees (``snapshot.sees_ts(ts, commit_log)`` is True).

    This is the page-level fast path of batch visibility: a page whose
    ``max_ts`` lies below the watermark needs **no per-record timestamp
    checks** — only anti-matter supersedes its records.  The bound is the
    minimum of

    * ``snapshot.xmax``      — ids at/after it started too late,
    * ``min(snapshot.active)`` — the oldest id uncommitted at snapshot
      time (invisible no matter how it ends),
    * ``commit_log.committed_floor`` — below it every id has committed.

    ``snapshot.xmin`` is deliberately absent: below the watermark every id
    is committed *and* outside the active set, so ``sees_ts`` answers True
    on both sides of xmin.  The owner's own id may exceed the watermark;
    callers comparing ``page_max_ts < W`` must separately admit
    owner-written pages (the partition gate in
    :meth:`~repro.core.tree.MVPBT.cursor` already does).
    """
    bound = min(snapshot.xmax, commit_log.committed_floor)
    if snapshot.active:
        bound = min(bound, min(snapshot.active))
    return bound


def version_visible_heap(version: TupleVersion, snapshot: Snapshot,
                         commit_log: CommitLog) -> bool:
    """Two-point-invalidation visibility (heap / PG-style).

    Visible iff the creator's effect is in the snapshot and the invalidator's
    (if any) is not.
    """
    if version.is_tombstone:
        return False
    if not snapshot.sees_ts(version.ts_create, commit_log):
        return False
    ts_inv = version.ts_invalidate
    if ts_inv is None:
        return True
    return not snapshot.sees_ts(ts_inv, commit_log)
