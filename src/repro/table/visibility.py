"""Base-table visibility checks.

These are the *expensive* visibility paths the paper's motivation section
prices: a version-oblivious index scan returns candidate recordIDs, and each
candidate costs (at least) one random base-table read before the executor
knows whether it is visible.  MV-PBT's index-only visibility check
(:mod:`repro.core.visibility`) exists to avoid exactly this code path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..errors import TupleNotFoundError
from ..storage.recordid import RecordID
from ..txn.snapshot import Snapshot
from ..txn.status import CommitLog
from ..txn.transaction import Transaction
from .base import TupleVersion

if TYPE_CHECKING:
    from .heap import HeapTable
    from .sias import SIASTable


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


def resolve_candidates_heap(
        txn: Transaction, table: "HeapTable",
        candidates: Iterable[RecordID]) -> list[tuple[RecordID, TupleVersion]]:
    """Resolve index candidates against a heap table.

    Each candidate is (typically) a HOT-chain root; the chain is walked
    old-to-new, charging buffered page I/O per version touched.  Results are
    deduplicated by logical tuple (several index entries may reach the same
    chain after cold updates).
    """
    seen_vids: set[int] = set()
    visible: list[tuple[RecordID, TupleVersion]] = []
    for rid in candidates:
        resolved = table.visible_version(txn, rid)
        if resolved is None:
            continue
        vis_rid, version = resolved
        if version.vid in seen_vids:
            continue
        seen_vids.add(version.vid)
        visible.append((vis_rid, version))
    return visible


def resolve_candidates_sias(
        txn: Transaction, table: "SIASTable",
        candidates: Iterable[RecordID]) -> list[tuple[RecordID, TupleVersion]]:
    """Resolve index candidates against a SIAS table (physical references).

    With one-point invalidation a version's validity can only be decided from
    the chain's *entry point* (its newest version): the candidate is fetched
    (random I/O) to learn its tuple, then the chain is walked new-to-old from
    the entry point to the version actually visible to the snapshot — more
    random I/O the longer the transient-version chain, which is precisely the
    HTAP degradation of the paper's Figures 3 and 12b.

    The candidate itself is only returned if it *is* the visible version
    (a candidate for an older/newer version of the same tuple loses; the
    visible version is accounted to the candidate that matches it).
    """
    seen_vids: set[int] = set()
    visible: list[tuple[RecordID, TupleVersion]] = []
    for rid in candidates:
        try:
            candidate = table.fetch(rid)
        except TupleNotFoundError:
            continue
        if candidate.vid in seen_vids:
            continue
        seen_vids.add(candidate.vid)
        if not table.has_chain(candidate.vid):
            continue
        entry = table.entry_point(candidate.vid)
        resolved = table.visible_version(txn, entry)
        if resolved is None:
            continue
        visible.append(resolved)
    return visible
