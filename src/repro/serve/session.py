"""Per-client session handles (DESIGN.md §15.1).

A session is one client's stateful connection to the engine: it owns at
most one open transaction at a time and translates every call into engine
work performed inside a fair-scheduler slot.  Sessions are cheap; a server
multiplexes up to ``max_sessions`` of them over the one underlying engine.

:class:`SessionCore` is everything that does not depend on which engine
that is; :class:`Session` binds it to a single-node
:class:`~repro.engine.database.Database` (group commit) and
:class:`~repro.serve.shard_server.ShardSession` to the sharded router
(2PC).  A binding writes its statement methods out on its own class: the
repo benchmark's tracer patches them by ``owner.__dict__[name]``.

A session is driven by **one thread at a time** (the pooled
:class:`~repro.serve.executor.SessionExecutor` guarantees this; hand-held
sessions must not be shared between threads mid-operation — enforced
with a cheap busy flag that raises :class:`~repro.errors.SessionError`
on overlap).

Analytical reads hold the engine slot only to pull or fetch and release
it between, so a long read never starves writers.  Over the engine's
``plan_scan`` / ``pull_index_slices`` / ``fetch_rows`` a single node is
the one-leg case of the router's scatter-gather.  There are two such
reads.  :meth:`SessionCore.batch_scan` is the ordered sliced scan:

* **Owner set.**  Only the plan's legs are asked (one on a single node
  or for a prefix-pinned sharded range).
* **Refill.**  Each leg buffers index-only hits below a *resume key*; one
  slot pulls ``slice_rows + 1`` hits for exactly the legs whose buffer
  is empty.
* **Trim.**  A pull's trailing run of equal keys becomes the resume key,
  so a key never splits between pulls (a one-key pull doubles).
* **Emit bound.**  Hits below the *smallest* resume key of the
  unexhausted legs are emitted in merged ``(key, shard)`` order, rows
  fetched in chunks of ``slice_rows`` (a slot each, never cutting a key's
  run).  Trees bisect on key tuples and ``encode_key`` preserves their
  order, so nothing is re-encoded.
* **Re-plan.**  Buffers depend on (snapshot, own writes, layout); when
  ``txn.writes`` or ``engine.layout`` moved they are dropped and the scan
  re-plans from its frontier, just past the last materialised key.
* **Fallback.**  A version-oblivious index has no bounded cursor: one
  materialising slot.

The slices concatenate to one monolithic snapshot scan: no duplicates,
no skips, whatever commits, evictions or merges interleave.

:meth:`SessionCore.gather_rows` and :meth:`SessionCore.count_range` are
the unordered gather, for readers that need no key order: one slot
pulls every live leg, each leg resumes at its own key, and each leg's
hits are fetched on that leg's own shard (a slot per fetch), so no row
pays the router's merge.  When ``txn.writes`` or ``engine.layout``
moved, the whole gather starts over: under one snapshot the answer is
stable, so it is the same multiset.  It has the same fallback.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from bisect import bisect_left
from itertools import islice
from operator import attrgetter
from types import TracebackType
from typing import (TYPE_CHECKING, Any, Callable, Generator, Generic,
                    Protocol, Sequence, TypeVar)

from ..errors import SessionError, TransactionStateError, WriteConflictError
from ..storage.recordid import RecordID
from ..types import JSONDict, Key, Row
from .config import check_slice_rows

if TYPE_CHECKING:
    from typing import Self

    from ..core.records import MVPBTRecord
    from ..core.tree import SearchHit
    from ..engine.database import Database
    from ..engine.executor import IndexSlice, RowHit, ScanLeg, ScanPlan
    from ..obs.core import Observability
    from ..txn.transaction import Transaction
    from .server import Server, ServerCore


class EngineLike(Protocol):
    """What the serving cores ask of an engine themselves: the obs facade,
    the keyed DML and the sliced scan's surface, which read the same on
    both topologies.  Everything else is a binding's business."""

    @property
    def obs(self) -> "Observability | None": ...

    @property
    def layout(self) -> object: ...

    @property
    def index_residue(self) -> bool: ...

    def update_by_key(self, txn: Any, index_name: str, key: Key,
                      updates: dict[str, object]) -> int: ...

    def delete_by_key(self, txn: Any, index_name: str, key: Key) -> int: ...

    def range_select(self, txn: Any, index_name: str, lo: Key | None,
                     hi: Key | None, *, lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Row]: ...

    def plan_scan(self, index_name: str, lo: Key | None, hi: Key | None,
                  *, lo_incl: bool = True,
                  hi_incl: bool = True) -> "ScanPlan": ...

    def pull_index_slices(self, txn: Any, index_name: str,
                          legs: "Sequence[ScanLeg]",
                          want: int) -> "list[IndexSlice]": ...

    def fetch_rows(self, txn: Any, index_name: str,
                   hits: "Sequence[tuple[int, SearchHit]]", *,
                   merged: bool) -> list[Row]: ...


class TxnLike(Protocol):
    """What the session core asks of an engine's transaction object."""

    @property
    def id(self) -> int: ...

    @property
    def is_active(self) -> bool: ...

    @property
    def writes(self) -> int: ...

    def abort(self) -> None: ...


E = TypeVar("E", bound=EngineLike)
T = TypeVar("T", bound=TxnLike)


class SessionCore(ABC, Generic[E, T]):
    """What a session *is*, whatever engine it is bound to: the one open
    transaction, the single-driver busy guard, the closed / no-transaction
    checks, ``run`` with its retry loop, ``close`` and the sliced scan.  A
    binding adds the statements (how its engine spells them) and the
    commit protocol (DESIGN.md §15.1)."""

    #: what the latest sliced scan asked (for :meth:`explain`)
    _scan_plan: JSONDict | None = None

    def __init__(self, server: "ServerCore[E, Any]", sid: int) -> None:
        self._server = server
        # reprolint: confined=engine
        self._engine = server.engine
        self.id = sid
        self._txn: T | None = None
        self._closed = False
        self._busy_by: int | None = None
        #: commits acknowledged through this session
        self.commits = 0
        #: simulated seconds the last commit took (a binding's ``commit``
        #: says from where to where)
        self.last_commit_latency_s = 0.0

    # ------------------------------------------------------------- lifecycle

    @abstractmethod
    def begin(self) -> int: ...

    @abstractmethod
    def commit(self) -> float: ...

    @abstractmethod
    def abort(self) -> None: ...

    def run(self, fn: "Callable[[Self], Any]", retries: int = 3) -> Any:
        """Run ``fn(self)`` in a transaction; commit on success, abort on
        error, first-updater-wins retry on write conflicts."""
        attempt = 0
        while True:
            self.begin()
            try:
                result = fn(self)
            except WriteConflictError:
                if self._txn is not None:
                    self.abort()
                attempt += 1
                if attempt > retries:
                    raise
                continue
            except BaseException:
                if self._txn is not None:
                    self.abort()
                raise
            if self._txn is not None:
                self.commit()
            return result

    @property
    def in_txn(self) -> bool:
        return self._txn is not None

    @property
    def txn(self) -> T:
        """The open transaction; raises when there is none."""
        if self._closed:
            raise SessionError(f"session {self.id} is closed")
        if self._txn is None:
            raise TransactionStateError(
                f"session {self.id}: no open transaction (call begin())")
        return self._txn

    def close(self) -> None:
        """Abort any open transaction and release the session slot."""
        if self._closed:
            return
        if self._txn is not None and self._txn.is_active:
            with self._server.scheduler.slot("oltp"):
                self._txn.abort()
        self._txn = None
        self._closed = True
        self._server._discard(self)

    # ------------------------------------------- statements that read the same

    def update_by_key(self, index: str, key: Key,
                      updates: dict[str, object]) -> int:
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.update_by_key(self.txn, index, key, updates)

    def delete_by_key(self, index: str, key: Key) -> int:
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.delete_by_key(self.txn, index, key)

    def count_range(self, index: str, lo: Key | None,
                    hi: Key | None) -> int:
        """COUNT(*) over the gather (:meth:`gather_rows`).  While no
        index tree can hold residue, index-only hits are 1:1 with rows:
        a pull's hits are counted and no row is fetched.  Otherwise — or
        on a version-oblivious index — the rows are read, which
        filters."""
        return self._gather(index, lo, hi, rows_wanted=False)[0]

    def gather_rows(self, index: str, lo: Key | None,
                    hi: Key | None) -> list[Row]:
        """The visible rows of ``[lo, hi]`` in no particular order — the
        unordered gather (module docstring) for readers that group, sum
        or sort the rows themselves."""
        return self._gather(index, lo, hi, rows_wanted=True)[1]

    def _gather(self, index: str, lo: Key | None, hi: Key | None, *,
                rows_wanted: bool) -> tuple[int, list[Row]]:
        """THE unordered gather: ``(rows counted, rows fetched)``.  Each
        slot does one step — fetch one pulled leg's hits on its own
        shard, else pull every live leg, else finish — after starting
        over if ``txn.writes`` or ``engine.layout`` moved."""
        txn = self.txn
        engine = self._engine
        want = self._server.config.scan_slice_rows
        count = 0
        rows: list[Row] = []
        legs: "list[ScanLeg]" = []
        #: pulled hits not yet fetched, a leg's at a time
        unfetched: "list[list[tuple[int, SearchHit]]]" = []
        stamp: object = None
        while True:
            with self._guard(), self._server.scheduler.slot("scan"):
                now = (txn.writes, engine.layout)
                if now != stamp:
                    # start over: a hit pulled under another layout may
                    # name a row that has moved shards since
                    plan = engine.plan_scan(index, lo, hi)
                    if not plan.index_only:     # no bounded cursor
                        rows = engine.range_select(txn, index, lo, hi)
                        return len(rows), rows
                    self._scan_plan = {"index": index, "plan": plan.name,
                                       "shards": plan.shards}
                    count, rows, legs, unfetched, stamp = (
                        0, [], list(plan.legs), [], now)
                if unfetched:
                    fetched = engine.fetch_rows(txn, index, unfetched.pop(),
                                                merged=False)
                    count += len(fetched)
                    rows += fetched
                    continue
                if not legs:
                    return count, rows
                self._server.note_scan_slice()
                pulled = engine.pull_index_slices(txn, index, legs, want)
                fetch = rows_wanted or engine.index_residue
            for leg, (hits, _resume) in zip(legs, pulled):
                if hits and fetch:
                    unfetched.append([(leg.shard, hit) for hit in hits])
                else:
                    count += len(hits)
            legs = [leg._replace(lo=resume, lo_incl=True)
                    for leg, (_hits, resume) in zip(legs, pulled)
                    if resume is not None]

    def scan_limit(self, index: str, lo: Key | None,
                   limit: int) -> list[Key]:
        """The first ``limit`` rows at/after ``lo``: a sliced scan whose
        slices are sized by the LIMIT (capped by ``scan_slice_rows``) and
        which is closed as soon as the rows are out.  A LIMIT below one
        reads nothing, as on the direct backends."""
        if limit < 1:
            return []
        stream = self.batch_scan(index, lo, None, slice_rows=min(
            limit, self._server.config.scan_slice_rows))
        try:
            return list(islice(stream, limit))
        finally:
            stream.close()

    def batch_scan(self, index: str, lo: Key | None = None,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True,
                   slice_rows: int | None = None
                   ) -> Generator[Row, None, None]:
        """THE ordered sliced scan (module docstring): visible rows in
        global key order, one slot per refill and one per fetched
        chunk."""
        txn = self.txn
        engine = self._engine
        limit = check_slice_rows(
            self._server.config.scan_slice_rows if slice_rows is None
            else slice_rows)
        #: the frontier: no key at or past it has been materialised
        from_key, from_incl = lo, lo_incl
        runs: list[_Run] = []
        stamp: object = None
        while True:
            with self._guard(), self._server.scheduler.slot("scan"):
                # the refill: re-plan from the frontier if own writes or
                # the layout moved, then pull every empty, live leg
                now = (txn.writes, engine.layout)
                if now != stamp:
                    plan = engine.plan_scan(index, from_key, hi,
                                            lo_incl=from_incl,
                                            hi_incl=hi_incl)
                    if not plan.index_only:     # no bounded cursor
                        rows = engine.range_select(txn, index, lo, hi,
                                                   lo_incl=lo_incl,
                                                   hi_incl=hi_incl)
                        break
                    runs = [_Run(leg) for leg in plan.legs]
                    self._scan_plan = {"index": index, "plan": plan.name,
                                       "shards": plan.shards}
                stamp = now
                empty = [run for run in runs
                         if not run.hits and run.resume is not None]
                if empty:
                    self._server.note_scan_slice()
                    pulled = engine.pull_index_slices(
                        txn, index, [run.leg for run in empty], limit)
                    for run, (hits, resume) in zip(empty, pulled):
                        run.hits, run.resume = hits, resume
                        if resume is not None:
                            run.leg = run.leg._replace(lo=resume,
                                                       lo_incl=True)
            resumes = [run.resume for run in runs
                       if run.resume is not None]
            ready = _take_below(runs, min(resumes) if resumes else None)
            start = 0
            while start < len(ready):
                end = min(start + limit, len(ready))
                while (end < len(ready)
                       and ready[end][1].key == ready[end - 1][1].key):
                    end += 1    # the frontier never splits a key
                with self._guard(), self._server.scheduler.slot("scan"):
                    rows = engine.fetch_rows(txn, index, ready[start:end],
                                             merged=len(runs) > 1)
                from_key, from_incl = ready[end - 1][1].key, False
                start = end
                yield from rows
                if (txn.writes, engine.layout) != stamp:
                    # the consumer wrote (or rebalanced) between two
                    # next() calls: every hit not yet materialised is
                    # stale — the next refill re-plans from the frontier
                    break
            else:
                if not resumes:
                    return
        yield from rows     # a version-oblivious index, read in one slot

    # -------------------------------------------------------------- plumbing

    def _require_idle(self) -> None:
        if self._txn is not None:
            raise SessionError(
                f"session {self.id}: transaction {self._txn.id} is "
                f"still open (no nested transactions)")

    def _guard(self) -> "_BusyGuard":
        if self._closed:
            raise SessionError(f"session {self.id} is closed")
        return _BusyGuard(self)

    def _committed(self, latency: float) -> float:
        """Close the books on an acknowledged commit."""
        self._txn = None
        self.commits += 1
        self.last_commit_latency_s = latency
        self._server.note_commit_latency(latency)
        return latency

    def explain(self) -> JSONDict:  # reprolint: disable=R12 -- tests/unit/test_shard_serve.py reads the last scan plan
        return {"session": self.id, "in_txn": self.in_txn,
                "commits": self.commits, "closed": self._closed,
                "scan": self._scan_plan}

    def __enter__(self) -> "Self":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"txn={self._txn.id}" if self._txn else "idle")
        return f"{type(self).__name__}(id={self.id}, {state})"


class _BusyGuard:
    """Catches two threads driving one session concurrently (misuse)."""

    __slots__ = ("_session",)

    def __init__(self, session: "SessionCore[Any, Any]") -> None:
        self._session = session

    def __enter__(self) -> "_BusyGuard":
        session = self._session
        me = threading.get_ident()
        if session._busy_by is not None and session._busy_by != me:
            raise SessionError(
                f"session {session.id} is being driven by two threads "
                f"concurrently — sessions are single-threaded handles")
        session._busy_by = me
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self._session._busy_by = None


class _Run:
    """One asked leg's side of a sliced scan — plain session-local
    state, never engine state."""

    __slots__ = ("leg", "hits", "resume")

    def __init__(self, leg: "ScanLeg") -> None:
        #: what is left to ask the leg's shard for
        self.leg = leg
        #: pulled and not yet emitted, in key order, all below ``resume``
        self.hits: "list[SearchHit]" = []
        #: every hit of the leg below this key has been pulled (``()``
        #: sorts before every key: nothing yet); None = leg exhausted
        self.resume: Key | None = ()


_hit_key = attrgetter("key")


def _take_below(runs: list[_Run],
                bound: Key | None) -> "list[tuple[int, SearchHit]]":
    """Move every buffered hit below ``bound`` (None: everything) out of
    the runs as ``(shard, hit)`` pairs merged on ``(key, shard)``: each
    buffer is in key order and the rank — position in the run-by-run
    concatenation — breaks ties towards the lower shard, then cursor
    order.  Hits of one run are already merged: they move out as they
    are."""
    taken: "list[tuple[int, list[SearchHit]]]" = []
    for run in runs:
        hits = run.hits
        cut = (len(hits) if bound is None
               else bisect_left(hits, bound, key=_hit_key))
        if cut:
            taken.append((run.leg.shard, hits[:cut]))
            del hits[:cut]
    if len(taken) == 1:
        shard, hits = taken[0]
        return [(shard, hit) for hit in hits]
    ready: "list[tuple[Key, int, int, SearchHit]]" = []
    for shard, hits in taken:
        base = len(ready)
        ready += [(hit.key, base + i, shard, hit)
                  for i, hit in enumerate(hits)]
    ready.sort()
    return [(shard, hit) for _key, _rank, shard, hit in ready]


class Session(SessionCore["Database", "Transaction"]):
    """One client's handle onto the served single-node engine."""

    _server: "Server"

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> int:
        """Open a transaction; returns its txid."""
        with self._guard():
            self._require_idle()
            with self._server.scheduler.slot("oltp"):
                self._txn = self._engine.begin()
            return self._txn.id

    def commit(self) -> float:
        """Commit the open transaction; returns the simulated commit
        latency in seconds (drain request to durability acknowledgement).

        On a durable database the drain happens in this session's engine
        slot, but the WAL append is batched with concurrently committing
        sessions by the group-commit leader.  A transaction that wrote
        nothing bypasses the group queue and does no I/O.
        """
        with self._guard():
            txn = self.txn
            clock = self._engine.clock
            # reprolint: disable-next=R10 -- monotonic sim-clock read; latency must span the whole commit, not just the slot
            t0 = clock.now
            committer = self._server.committer
            durability = self._engine.durability
            records: "list[tuple[str, MVPBTRecord]] | None" = None
            with self._server.scheduler.slot("oltp"):
                txn.require_active()
                if (committer is None or durability is None
                        or durability.wrote_nothing(txn)):
                    # nothing to batch: the plain path, whose hook elides
                    # the WAL append of a commit that wrote nothing
                    self._engine.txn.commit(txn)
                else:
                    records = durability.drain_commit_records(txn)
            if committer is not None and records is not None:
                # a failed append leaves the transaction ACTIVE: the
                # session stays usable and the caller decides
                committer.commit(txn, records)
            # reprolint: disable-next=R10 -- monotonic sim-clock read
            return self._committed(clock.now - t0)

    def abort(self) -> None:
        with self._guard():
            txn = self.txn
            with self._server.scheduler.slot("oltp"):
                self._engine.txn.abort(txn)
            self._txn = None

    # ------------------------------------------------------------------- DML

    def insert(self, table: str,
               row: Sequence[object]) -> tuple[int, RecordID]:
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.insert(self.txn, table, row)

    def update_row(self, table: str, rid: RecordID, version: Any,
                   updates: dict[str, object]) -> None:
        """UPDATE one previously-fetched row (hit-handle DML: pass the
        ``rid``/``version`` of a :class:`~repro.engine.executor.RowHit`
        obtained in this transaction)."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            self._engine.update_row(self.txn, table, rid, version, updates)

    def delete_row(self, table: str, rid: RecordID, version: Any) -> None:
        """DELETE one previously-fetched row (hit-handle DML)."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            self._engine.delete_row(self.txn, table, rid, version)

    # ----------------------------------------------------------------- reads

    def select(self, index: str, key: Key) -> list[Key]:
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.select(self.txn, index, key)

    def select_hits(self, index: str, key: Key) -> "list[RowHit]":
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.select_hits(self.txn, index, key)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> "list[RowHit]":
        """Materialising range read returning row-hit handles (one slot;
        small OLTP ranges — analytical scans use :meth:`batch_scan`)."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.range_hits(self.txn, index, lo, hi,
                                           lo_incl=lo_incl,
                                           hi_incl=hi_incl)

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True, hi_incl: bool = True) -> list[Key]:
        """Materialising range read in ONE slot (small ranges, OLTP)."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.range_select(self.txn, index, lo, hi,
                                             lo_incl=lo_incl,
                                             hi_incl=hi_incl)

    def batch_scan(self, index: str, lo: Key | None = None,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True,
                   slice_rows: int | None = None
                   ) -> Generator[Row, None, None]:
        """The core's sliced scan; on this class for the tracer (§15.1)."""
        yield from super().batch_scan(index, lo, hi, lo_incl=lo_incl,
                                      hi_incl=hi_incl, slice_rows=slice_rows)
