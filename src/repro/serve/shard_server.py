"""Concurrent serving over a sharded router (DESIGN.md §16.6).

A :class:`ShardServer` multiplexes client sessions over one
:class:`~repro.shard.router.ShardedDatabase` the same way
:class:`~repro.serve.server.Server` serves a single engine: a
:class:`~repro.serve.scheduler.FairScheduler` FIFO slot confines router +
coordinator + every shard to one thread at a time, sessions are cheap
registry entries, and long analytical scans release the slot between
slices.

There is no :class:`~repro.serve.group_commit.GroupCommitter` here: the
router's own commit protocol already decides how many WAL appends a
commit costs (one on the touched shard, or the 2PC marker flow), and
batching across *different shards'* WALs would couple devices the
sharding exists to decouple.

:meth:`ShardSession.batch_scan` is the scatter-gather analogue of the
single-node sliced scan, built so that a hit crosses the router once:

* **Owner set.**  The router's ``plan_scan`` names the shards that can
  own a row of the range (one, for a prefix-pinned range); only those
  are ever asked.
* **Buffers and the refill rule.**  Each asked shard has a session-local
  buffer of index-only hits and a *resume key*: every hit of the shard
  below the resume key is either emitted or in the buffer.  A refill —
  one scheduler slot, one ``gather`` — pulls a bounded cursor run
  (``slice_rows + 1`` hits) for exactly the shards whose buffer is empty.
* **Duplicate-run trim.**  A pull's trailing run of equal keys is cut off
  and becomes the resume key, so a key is never split between two pulls
  (a pull that is one key throughout doubles until the run fits).
* **Emit bound.**  Everything buffered below the *smallest* resume key of
  the shards not yet exhausted is safe to emit — no unpulled tail can
  sort before it — and is emitted in merged ``(key, shard)`` order, rows
  fetched in chunks of ``slice_rows`` (one slot each; the ownership
  filter runs on every fetched row, so rebalance residue never shows).
* **Tuple order is encoded order.**  The trees bisect on key tuples and
  ``encode_key`` is order-preserving by construction, so each shard's
  run already arrives in the merge order; nothing is re-encoded.
* **Own writes and layout changes.**  Buffered hits are a pure function
  of (snapshot, own writes, layout).  The snapshot is fixed; when the
  session's ``ShardTransaction.writes`` or the partitioner changed since
  the buffers were pulled they are dropped and the scan re-plans from
  its frontier — just past the last materialised key — so a session
  sees its own writes ahead of the scan exactly as a fresh cursor would.

The concatenation of slices therefore equals one monolithic snapshot
scan: no duplicates, no skips, regardless of interleaved commits or
evictions.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import attrgetter
from types import TracebackType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..errors import SessionError, TransactionStateError
from ..obs.registry import LATENCY_BUCKETS_US
from ..storage.recordid import RecordID
from ..types import JSONDict, Key
from .config import ServeConfig, check_slice_rows
from .scheduler import FairScheduler

if TYPE_CHECKING:
    from ..core.tree import SearchHit
    from ..shard.router import ScanLeg, ShardedDatabase
    from ..shard.txn import ShardTransaction

#: one hit cleared to emit: (index key, merge rank, shard, hit) — sorts on
#: the first two, the rank being unique
_Ready = tuple[Key, int, int, "SearchHit"]

#: a range: (lo, lo_incl, hi, hi_incl)
_Bounds = tuple[Key | None, bool, Key | None, bool]

_hit_key = attrgetter("key")


class _Run:
    """One asked shard's side of a sliced scan — plain session-local
    state, never engine state."""

    __slots__ = ("leg", "hits", "resume")

    def __init__(self, leg: "ScanLeg") -> None:
        #: what is left to ask the shard for
        self.leg = leg
        #: pulled and not yet emitted, in key order, all below ``resume``
        self.hits: "list[SearchHit]" = []
        #: every hit of the shard below this key has been pulled (``()``
        #: sorts before every key: nothing yet); None = shard exhausted
        self.resume: Key | None = ()


class ShardServer:
    """Multiplexes concurrent client sessions over a sharded router."""

    def __init__(self, router: "ShardedDatabase",
                 config: ServeConfig | None = None) -> None:
        self.router = router
        self.config = config if config is not None else ServeConfig()
        self.scheduler = FairScheduler(
            ordering_checks=self.config.ordering_checks)
        if self.config.parallel_scatter_gather:
            # per-shard thunks touch disjoint engines; the gather call
            # itself stays inside the caller's slot (DESIGN.md §18.3)
            from .parallel import ThreadedGather
            # reprolint: disable-next=R10 -- install-time: no session exists yet, no concurrent engine access possible
            self.router.gather = ThreadedGather()
        # registry lock: leaf lock, never held while acquiring any other
        # reprolint: lock-rank=LEAF -- session registry only
        self._registry_lock = threading.Lock()
        self._sessions: dict[int, ShardSession] = {}
        self._next_sid = 1
        self._closed = False
        self._obs = router.obs
        if self._obs is not None:
            registry = self._obs.registry
            self._m_opened = registry.counter("serve.sessions.opened")
            self._m_closed = registry.counter("serve.sessions.closed")
            self._g_active = registry.gauge("serve.sessions.active")
            self._m_slices = registry.counter("serve.scan.slices")
            self._m_commit_latency = registry.histogram(
                "serve.commit.latency_us", LATENCY_BUCKETS_US)

    # -------------------------------------------------------------- sessions

    def session(self) -> "ShardSession":
        """Open a new session handle (close it, or use ``with``)."""
        with self._registry_lock:
            if self._closed:
                raise SessionError("server is closed")
            if len(self._sessions) >= self.config.max_sessions:
                raise SessionError(
                    f"session cap reached ({self.config.max_sessions}); "
                    f"close a session first")
            sid = self._next_sid
            self._next_sid += 1
            session = ShardSession(self, sid)
            self._sessions[sid] = session
        if self._obs is not None:
            self._m_opened.inc()
            self._g_active.set(self.active_sessions)
        return session

    def _discard(self, session: "ShardSession") -> None:
        with self._registry_lock:
            self._sessions.pop(session.id, None)
        if self._obs is not None:
            self._m_closed.inc()
            self._g_active.set(self.active_sessions)

    @property
    def active_sessions(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    # ---------------------------------------------------------- obs plumbing

    def note_commit_latency(self, latency_s: float) -> None:
        if self._obs is not None:
            self._m_commit_latency.observe(latency_s * 1e6)

    def note_scan_slice(self) -> None:
        if self._obs is not None:
            self._m_slices.inc()

    # ------------------------------------------------------------ inspection

    def stats(self) -> JSONDict:
        """Serving-layer snapshot: scheduler fairness + router shape."""
        return {
            "active_sessions": self.active_sessions,
            "shards": len(self.router.shards),
            "scheduler": {
                "ticks": self.scheduler.ticks,
                "kinds": self.scheduler.stats(),
            },
            # reprolint: disable-next=R10 -- stats-only read of a monotonic txid allocator; torn values impossible
            "coordinator_next_txid": self.router.coordinator.next_txid,
        }

    # ------------------------------------------------------------- lifecycle

    def vacuum(self, table: str) -> Any:
        """Vacuum the table on every shard (one engine slot)."""
        with self.scheduler.slot("oltp"):
            return self.router.vacuum(table)

    def close(self) -> None:
        """Abort open sessions and stop the scheduler."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        if self.config.parallel_scatter_gather:
            from ..shard.router import serial_gather
            # reprolint: disable-next=R10 -- teardown: every session is closed, no concurrent engine access possible
            self.router.gather = serial_gather
        self.scheduler.close()

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardServer(sessions={self.active_sessions}, "
                f"shards={len(self.router.shards)})")


class ShardSession:
    """One client's handle onto the served router (single-threaded)."""

    def __init__(self, server: ShardServer, sid: int) -> None:
        self._server = server
        self._router = server.router
        self.id = sid
        self._txn: "ShardTransaction | None" = None
        self._closed = False
        self._busy_by: int | None = None
        #: commits acknowledged through this session
        self.commits = 0
        #: simulated seconds the last commit spent inside the slot
        self.last_commit_latency_s = 0.0
        #: what the latest sliced scan asked (for :meth:`explain`)
        self._scan_plan: JSONDict | None = None

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> int:
        """Open a global transaction; returns its txid."""
        with self._guard():
            if self._txn is not None:
                raise SessionError(
                    f"session {self.id}: transaction {self._txn.id} is "
                    f"still open (no nested transactions)")
            with self._server.scheduler.slot("oltp"):
                self._txn = self._router.begin()
            return self._txn.id

    def commit(self) -> float:
        """Commit; returns the simulated latency in seconds (the router's
        max-over-shards clock delta across the commit protocol)."""
        with self._guard():
            txn = self._require_txn()
            server = self._server
            with server.scheduler.slot("oltp"):
                t0 = self._router.sim_now
                self._router.commit(txn)
                latency = self._router.sim_now - t0
            self._txn = None
            self.commits += 1
            self.last_commit_latency_s = latency
            server.note_commit_latency(latency)
            return latency

    def abort(self) -> None:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                self._router.abort(txn)
            self._txn = None

    def run(self, fn: Callable[["ShardSession"], Any],
            retries: int = 3) -> Any:
        """Run ``fn(self)`` in a transaction; commit on success, abort on
        error, first-updater-wins retry on write conflicts."""
        from ..errors import WriteConflictError
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
    def txn(self) -> "ShardTransaction":
        """The open transaction (for host-level integration/tests)."""
        return self._require_txn()

    def close(self) -> None:
        """Abort any open transaction and release the session slot."""
        if self._closed:
            return
        if self._txn is not None and self._txn.is_active:
            with self._server.scheduler.slot("oltp"):
                self._router.abort(self._txn)
        self._txn = None
        self._closed = True
        self._server._discard(self)

    # ------------------------------------------------------------------- DML

    def insert(self, table: str,
               row: Sequence[object]) -> tuple[int, RecordID]:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._router.insert(txn, table, row)

    def update_by_key(self, index: str, key: Key,
                      updates: dict[str, object]) -> int:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._router.update_by_key(txn, index, key, updates)

    def delete_by_key(self, index: str, key: Key) -> int:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._router.delete_by_key(txn, index, key)

    def update_hit(self, table: str, shard: int, hit: Any,
                   updates: dict[str, object]) -> None:
        """UPDATE one previously-fetched row: pass the ``(shard, hit)``
        pair returned by :meth:`select_hits` / :meth:`range_hits`.  A
        shard-key change moves the row between shards inside the same
        global transaction."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                self._router.update_hit(txn, table, shard, hit, updates)

    def delete_hit(self, table: str, shard: int, hit: Any) -> None:
        """DELETE one previously-fetched row on its shard."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                self._router.delete_hit(txn, table, shard, hit)

    # ----------------------------------------------------------------- reads

    def select(self, index: str, key: Key) -> list[Key]:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._router.select(txn, index, key)

    def select_hits(self, index: str, key: Key) -> "list[tuple[int, Any]]":
        """Point lookup returning ``(shard, hit)`` handles for
        :meth:`update_hit` / :meth:`delete_hit`."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._router.select_hits_tagged(txn, index, key)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> "list[tuple[int, Any]]":
        """Materialising scatter-gather range read returning ``(shard,
        hit)`` handles (one slot; small OLTP ranges)."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._router.range_hits_tagged(
                    txn, index, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Key]:
        """Materialising scatter-gather range read in ONE slot."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._router.range_select(txn, index, lo, hi,
                                                 lo_incl=lo_incl,
                                                 hi_incl=hi_incl)

    def batch_scan(self, index: str, lo: Key | None = None,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True,
                   slice_rows: int | None = None) -> Iterator[Key]:
        """Sliced scatter-gather scan: global key order, slot per slice.

        Asks only the shards that can own a row of the range, keeps one
        buffer per asked shard, refills only the empty ones and emits —
        in merged ``(key, shard)`` order — what lies below every unpulled
        tail (module docstring); ownership filtering runs on the fetched
        rows, so rebalance residue is never emitted.
        """
        txn = self._require_txn()
        router = self._router
        limit = check_slice_rows(
            self._server.config.scan_slice_rows if slice_rows is None
            else slice_rows)
        # reprolint: disable-next=R10 -- catalog is frozen after setup (no DDL during serving); plan-time read needs no slot
        info = router.shards[0].catalog.index(index)
        if not info.index_only:
            # no streaming cursor without index-only visibility: one slot
            with self._guard():
                with self._server.scheduler.slot("scan"):
                    rows = router.range_select(txn, index, lo, hi,
                                               lo_incl=lo_incl,
                                               hi_incl=hi_incl)
            yield from rows
            return
        #: what is left of the range; its low end is the frontier — no
        #: key at or past it has been materialised
        rest: _Bounds = (lo, lo_incl, hi, hi_incl)
        runs: list[_Run] = []
        stamp: object = None
        while True:
            stamp, runs = self._refill(txn, index, stamp, runs, rest, limit)
            resumes = [run.resume for run in runs
                       if run.resume is not None]
            ready = _take_below(runs, min(resumes) if resumes else None)
            start = 0
            while start < len(ready):
                end = min(start + limit, len(ready))
                while end < len(ready) and ready[end][0] == ready[end - 1][0]:
                    end += 1    # the frontier never splits a key
                rows = self._rows_for(txn, index, ready[start:end])
                rest = (ready[end - 1][0], False, hi, hi_incl)
                start = end
                yield from rows
                if (txn.writes, router.partitioner) != stamp:
                    # the consumer wrote (or rebalanced) between two
                    # next() calls: every hit not yet materialised is
                    # stale — the next refill re-plans from the frontier
                    break
            else:
                if not resumes:
                    return

    def count_range(self, index: str, lo: Key | None,
                    hi: Key | None) -> int:
        """COUNT(*) via the sliced scatter-gather scan."""
        return sum(1 for _ in self.batch_scan(index, lo, hi))

    # -------------------------------------------------------------- plumbing

    def _refill(self, txn: "ShardTransaction", index: str, stamp: object,
                runs: list[_Run], rest: _Bounds,
                want: int) -> tuple[object, list[_Run]]:
        """One scheduler slot: (re)plan over ``rest`` — the range from the
        frontier on — when the buffers' stamp (own writes, layout) no
        longer holds, then pull one bounded cursor run for every asked
        shard whose buffer is empty.  The pulls go through the router's
        ``gather`` hook, so a parallel-configured server overlaps them."""
        router = self._router
        with self._guard():
            with self._server.scheduler.slot("scan"):
                now = (txn.writes, router.partitioner)
                if now != stamp:
                    lo, lo_incl, hi, hi_incl = rest
                    plan = router.plan_scan(index, lo, hi, lo_incl=lo_incl,
                                            hi_incl=hi_incl)
                    runs = [_Run(leg) for leg in plan.legs]
                    self._scan_plan = {"index": index, "plan": plan.name,
                                       "shards": plan.shards}
                empty = [run for run in runs
                         if not run.hits and run.resume is not None]
                if empty:
                    self._server.note_scan_slice()
                    pulled = router.pull_index_slices(
                        txn, index, [run.leg for run in empty], want)
                    for run, (hits, resume) in zip(empty, pulled):
                        run.hits, run.resume = hits, resume
                        if resume is not None:
                            run.leg = run.leg._replace(lo=resume,
                                                       lo_incl=True)
                return now, runs

    def _rows_for(self, txn: "ShardTransaction", index: str,
                  merged: list[_Ready]) -> list[Key]:
        """Materialise one slice's rows in merged order: per-shard batch
        fetches (engine state — own slot), then the ownership filter."""
        router = self._router
        # reprolint: disable-next=R10 -- catalog is frozen after setup
        info = router.shards[0].catalog.index(index)
        # reprolint: disable-next=R10 -- layout read is rebalance-safe: ownership of fetched rows is re-filtered below
        positions = router.shard_key_positions(info.table)
        partitioner = router.partitioner
        by_shard: dict[int, list["SearchHit"]] = {}
        for _key, _rank, shard, hit in merged:
            by_shard.setdefault(shard, []).append(hit)
        # _fetch_hits is 1:1 on heap/SIAS stores (the only kinds sharded
        # tables allow), so per-shard streams stay aligned with `merged`;
        # the ownership filter nulls residue entries without compacting
        fetched: dict[int, Iterator[Any]] = {}
        with self._guard():
            with self._server.scheduler.slot("scan"):
                for shard, hits in by_shard.items():
                    db = router.shards[shard]
                    table = db.catalog.table(info.table)
                    row_hits = db.executor._fetch_hits(
                        txn.on(shard), table, hits)
                    fetched[shard] = iter([
                        rh if partitioner.shard_of(tuple(
                            rh.version.data[p] for p in positions)) == shard
                        else None
                        for rh in row_hits])
                # the router's own work on a row — two merge comparisons
                # and the ownership hash — is host CPU no shard's engine
                # saw: every shard's clock pays it, as for any host-level
                # overhead.  It keeps a scan's simulated cost proportional
                # to its rows now that the engines ask one page request
                # per page, not per row (DESIGN.md §9.10)
                cost = router.config.cost
                cpu = len(merged) * (2 * cost.compare + cost.hash_op)
                for db in router.shards:
                    db.clock.advance(cpu)
        rows: list[Key] = []
        for _key, _rank, shard, _hit in merged:
            row_hit = next(fetched[shard])
            if row_hit is not None:
                rows.append(row_hit.row)
        return rows

    def _require_txn(self) -> "ShardTransaction":
        if self._closed:
            raise SessionError(f"session {self.id} is closed")
        if self._txn is None:
            raise TransactionStateError(
                f"session {self.id}: no open transaction (call begin())")
        return self._txn

    def _guard(self) -> "_BusyGuard":
        if self._closed:
            raise SessionError(f"session {self.id} is closed")
        return _BusyGuard(self)

    def explain(self) -> JSONDict:
        return {"session": self.id, "in_txn": self.in_txn,
                "commits": self.commits, "closed": self._closed,
                "scan": self._scan_plan}

    def __enter__(self) -> "ShardSession":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"txn={self._txn.id}" if self._txn else "idle")
        return f"ShardSession(id={self.id}, {state})"


def _take_below(runs: list[_Run], bound: Key | None) -> list[_Ready]:
    """Move every buffered hit below ``bound`` (None: everything) out of
    the runs, merged on ``(key, shard)``: each buffer is in key order and
    the rank — position in the run-by-run concatenation — breaks ties
    towards the lower shard, then cursor order."""
    ready: list[_Ready] = []
    for run in runs:
        hits = run.hits
        cut = (len(hits) if bound is None
               else bisect_left(hits, bound, key=_hit_key))
        shard, base = run.leg.shard, len(ready)
        ready += [(hit.key, base + i, shard, hit)
                  for i, hit in enumerate(hits[:cut])]
        del hits[:cut]
    ready.sort()
    return ready


class _BusyGuard:
    """Catches two threads driving one session concurrently (misuse)."""

    __slots__ = ("_session",)

    def __init__(self, session: ShardSession) -> None:
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
