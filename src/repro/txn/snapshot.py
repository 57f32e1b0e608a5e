"""Snapshots (PostgreSQL-style xmin / xmax / active-set).

A snapshot taken at transaction begin determines which transaction ids'
effects the owner may see: a timestamp ``ts`` is visible iff

* ``ts`` committed, **and**
* ``ts < xmax`` (started before the snapshot was taken), **and**
* ``ts`` was not active (uncommitted) when the snapshot was taken.

The owner always sees its own writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .status import CommitLog


@dataclass(frozen=True)
class Snapshot:
    """Immutable visibility horizon of one transaction."""

    owner: int                      #: transaction id holding this snapshot
    xmax: int                       #: next txid at snapshot time (exclusive bound)
    active: frozenset[int] = field(default_factory=frozenset)
    #: lowest txid that was active at snapshot time (== xmax if none);
    #: everything below is decided (committed or aborted) for this snapshot.
    xmin: int = 0

    def sees_ts(self, ts: int, commit_log: CommitLog) -> bool:
        """Is the effect of transaction ``ts`` visible to this snapshot?"""
        if ts == self.owner:
            return True
        if ts < self.xmin and ts not in self.active:
            # below the snapshot horizon the id was already decided: only
            # the commit bit matters (an O(1) array probe in the CommitLog).
            # The ``active`` probe guards hand-built snapshots whose xmin
            # does not bound the active set (manager snapshots always do).
            return commit_log.is_committed(ts)
        if ts >= self.xmax:
            return False
        if ts in self.active:
            return False
        return commit_log.is_committed(ts)
