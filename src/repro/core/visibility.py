"""Index-only visibility check (paper §4.4, Algorithm 3).

A :class:`VisibilityChecker` lives for the duration of one search/scan
operation and is fed records in MV-PBT processing order — partitions newest
to oldest, and within a partition newest-first per key (§4.3).  Because of
that ordering, any record invalidating a tuple-version is guaranteed to be
seen *before* the record validating it, so one forward pass with an
"anti-matter map" decides visibility without touching the base table.

A record is **invisible** when (Alg. 3):

(a) it is flagged for garbage collection;
(b) its timestamp is not committed-visible to the calling snapshot (newer,
    concurrent, uncommitted, or aborted);
(c) visible anti-matter for its matter identity was already encountered
    (it has been replaced / its key changed / its tuple was deleted); or
(d) it is pure anti-matter itself (anti- or tombstone record).

Deviation from the paper's pseudocode (documented in DESIGN.md §6): a
committed-visible record registers its anti-matter *even when its own matter
is superseded* — the cascade keeps whole-chain invalidation (e.g. through a
tombstone) correct across records in older partitions.

When GC information is supplied, the checker additionally classifies records
that *no* active or future snapshot can see as :data:`Visibility.GARBAGE`
(§4.6 phase 1 piggybacks exactly this pass).  With ``active_snapshots`` the
classification is interval-based (HANA-style): a superseded record is dead
when no active snapshot's visibility window lands on it — which collects the
*transient* versions created and superseded entirely during a long-running
query, the paper's headline HTAP GC case.  With only a ``cutoff`` the
classification falls back to the conservative below-oldest-horizon rule.

:class:`CandidateChecker` switches the check off for the paper's
version-oblivious ablation (Fig. 12a "w/o GC+idxVC"): the same partition
walk then returns every matter record as an unchecked candidate.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import ClassVar

from ..config import CostModel
from ..sim.clock import SimClock
from ..txn.snapshot import Snapshot
from ..txn.status import CommitLog
from .records import (FLAG_GC, HAS_ANTIMATTER, HAS_MATTER, MVPBTRecord,
                      ReferenceMode)


class Visibility(Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"
    #: invisible *and* provably dead below the GC cutoff (phase-1 candidate)
    GARBAGE = "garbage"


class VisibilityChecker:
    """Stateful per-operation visibility check.

    Thread confinement (DESIGN.md §15.2): a checker is created per
    search/scan operation and must stay private to the thread running that
    operation — the ``sees_ts`` memo and anti-matter map are mutated
    without synchronization.  The serve layer guarantees this by running
    every operation (hence every checker lifetime) inside one engine slot
    of the fair scheduler; per-session slices re-create their checker, so
    no checker ever crosses a slot boundary.  The commit log it reads is
    safe to probe lock-free (monotone, decided-once — see
    :mod:`repro.txn.status`).
    """

    __slots__ = ("snapshot", "commit_log", "mode", "cutoff",
                 "active_snapshots", "_anti", "_sees_memo", "_clock",
                 "_cost", "records_processed")

    #: are the hits final?  A point lookup may stop at the first hit only
    #: when they are (an unchecked candidate may turn out invisible)
    exact: ClassVar[bool] = True

    def __init__(self, snapshot: Snapshot, commit_log: CommitLog,
                 mode: ReferenceMode, *, cutoff: int | None = None,
                 active_snapshots: list[Snapshot] | None = None,
                 clock: SimClock | None = None,
                 cost: CostModel | None = None) -> None:
        self.snapshot = snapshot
        self.commit_log = commit_log
        self.mode = mode
        self.cutoff = cutoff
        self.active_snapshots = active_snapshots
        #: anti-matter map: identity -> (ts, seq) of the newest invalidation
        self._anti: dict[object, tuple[int, int]] = {}
        #: memo: ts -> sees_ts answer, resolved at most once per operation
        self._sees_memo: dict[int, bool] = {}
        self._clock = clock
        self._cost = cost if cost is not None else CostModel()
        self.records_processed = 0

    # -------------------------------------------------------------- checking

    def check(self, record: MVPBTRecord) -> Visibility:
        """Classify one record (records must arrive in processing order).

        This is the hottest loop of every index-only scan: steps (a)-(d)
        below mirror Algorithm 3, but matter/anti-matter are dispatched via
        flat per-type tables and the ts memo is probed inline rather than
        through the record properties / helper methods used elsewhere.
        """
        if self._clock is not None:                       # == _charge()
            self._clock.advance(self._cost.visibility_step)
        self.records_processed += 1

        # (b) timestamp not committed-visible to the snapshot
        ts = record.ts
        memo = self._sees_memo
        sees = memo.get(ts)
        if sees is None:
            sees = memo[ts] = self.snapshot.sees_ts(ts, self.commit_log)
        if not sees:
            return Visibility.INVISIBLE

        rtype = record.rtype
        anti = self._anti
        logical = self.mode is ReferenceMode.LOGICAL

        # (c) matter already superseded by visible anti-matter?
        superseded_by: tuple[int, int] | None = None
        if HAS_MATTER[rtype]:
            anti_ts = anti.get(record.vid if logical else record.rid_new)
            if anti_ts is not None and (ts, record.seq) < anti_ts:
                superseded_by = anti_ts

        # cascade: committed-visible anti-matter always registers — even on
        # GC-flagged records: the flag declares the *matter* dead, but the
        # record's invalidation reach is only transferred at physical purge
        # time (phase 2/3 patching), so until then it must keep killing
        if HAS_ANTIMATTER[rtype]:
            identity = record.vid if logical else record.rid_old
            if identity is not None:
                stamp = (ts, record.seq)
                existing = anti.get(identity)
                if existing is None or stamp > existing:
                    anti[identity] = stamp

        # (a) flagged garbage is never returned
        if record.flags & FLAG_GC:
            return Visibility.INVISIBLE

        # (d) pure anti-matter (ANTI / TOMBSTONE) is never returned
        if not HAS_MATTER[rtype]:
            return Visibility.INVISIBLE

        if superseded_by is not None:
            if self._dead_below_cutoff(ts, superseded_by[0]):
                return Visibility.GARBAGE
            return Visibility.INVISIBLE
        return Visibility.VISIBLE

    def visible_set_entries(
            self, record: MVPBTRecord) -> list[tuple[int, object, int, int]]:
        """Visible (vid, rid, ts, seq) entries of a REGULAR_SET record.

        Set entries are pure matter (reconciled REGULAR records); each entry
        is checked individually against the snapshot and the anti-matter map.
        """
        if record.is_gc:
            return []
        visible: list[tuple[int, object, int, int]] = []
        for vid, rid, ts, seq in record.set_entries:
            self._charge()
            self.records_processed += 1
            if not self._sees(ts):
                continue
            identity = vid if self.mode is ReferenceMode.LOGICAL else rid
            anti_ts = self._anti.get(identity)
            if anti_ts is not None and (ts, seq) < anti_ts:
                continue
            visible.append((vid, rid, ts, seq))
        return visible

    # -------------------------------------------------------------- internal

    def _sees(self, ts: int) -> bool:
        """Memoised ``snapshot.sees_ts``: each distinct timestamp is resolved
        against the snapshot at most once per operation.

        Safe to cache for the checker's lifetime: relative to a *fixed*
        snapshot, every answer is immutable — a timestamp below ``xmax`` and
        outside ``active`` was decided before the snapshot was taken, and all
        other timestamps are invisible regardless of their eventual commit
        outcome.  A transaction committing mid-operation therefore cannot
        flip a cached decision (it was concurrent, hence invisible, when the
        snapshot was taken).
        """
        memo = self._sees_memo
        sees = memo.get(ts)
        if sees is None:
            sees = self.snapshot.sees_ts(ts, self.commit_log)
            memo[ts] = sees
        return sees

    def _dead_below_cutoff(self, record_ts: int, anti_ts: int) -> bool:
        """Is a superseded record invisible to every active/future snapshot?

        Interval rule (preferred): the superseding change is committed, so
        every *future* snapshot sees the record as superseded; the record is
        garbage unless some *active* snapshot sees the record but not its
        superseder.  Cutoff rule (fallback): both timestamps lie below the
        oldest active horizon.
        """
        log = self.commit_log
        if self.active_snapshots is not None:
            if not log.is_committed(anti_ts) or not log.is_committed(record_ts):
                return False
            for snap in self.active_snapshots:
                if (snap.sees_ts(record_ts, log)
                        and not snap.sees_ts(anti_ts, log)):
                    return False
            return True
        if self.cutoff is None:
            return False
        return (anti_ts < self.cutoff
                and record_ts < self.cutoff
                and log.is_committed(anti_ts))

    def _charge(self) -> None:
        if self._clock is not None:
            self._clock.advance(self._cost.visibility_step)


#: a snapshot no min-timestamp filter excludes: ``xmax`` lies above every
#: timestamp, so every partition and page passes the gate
_ADMIT_ALL = Snapshot(owner=-1, xmax=sys.maxsize)


class CandidateChecker(VisibilityChecker):
    """The check switched off: a version-oblivious PBT (Fig. 12a, lower bar).

    Every record with matter, and every set entry, is a :data:`VISIBLE`
    *candidate* the executor must resolve against the base table.  Nothing
    registers anti-matter, nothing is :data:`GARBAGE`, nothing is charged to
    the simulated clock, and the snapshot admits every partition and page
    the min-timestamp filters would otherwise prune.
    """

    __slots__ = ()

    exact: ClassVar[bool] = False

    def __init__(self, commit_log: CommitLog, mode: ReferenceMode) -> None:
        super().__init__(_ADMIT_ALL, commit_log, mode)

    def check(self, record: MVPBTRecord) -> Visibility:
        self.records_processed += 1
        if HAS_MATTER[record.rtype]:
            return Visibility.VISIBLE
        return Visibility.INVISIBLE

    def visible_set_entries(
            self, record: MVPBTRecord) -> list[tuple[int, object, int, int]]:
        entries = record.set_entries
        self.records_processed += len(entries)
        return list(entries)
