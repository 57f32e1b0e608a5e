"""Concurrent serving over a sharded router (DESIGN.md §16.6).

:class:`ShardServer` / :class:`ShardSession` bind the serving cores
(:class:`~repro.serve.server.ServerCore`,
:class:`~repro.serve.session.SessionCore`) to one
:class:`~repro.shard.router.ShardedDatabase`: the FIFO slot confines
router + coordinator + every shard to one thread at a time, and what is
written here is only what a router spells differently — the statements,
the commit protocol, the sliced scatter-gather scan, the gather hook.

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

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Generator, Iterator, Sequence

from ..storage.recordid import RecordID
from ..types import JSONDict, Key
from .config import ServeConfig, check_slice_rows
from .server import ServerCore
from .session import SessionCore

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


class ShardServer(ServerCore["ShardedDatabase", "ShardSession"]):
    """Multiplexes concurrent client sessions over a sharded router."""

    def __init__(self, router: "ShardedDatabase",
                 config: ServeConfig | None = None) -> None:
        super().__init__(router, config)
        self.router = router
        if self.config.parallel_scatter_gather:
            # per-shard thunks touch disjoint engines; the gather call
            # itself stays inside the caller's slot (DESIGN.md §18.3)
            from .parallel import ThreadedGather
            # reprolint: disable-next=R10 -- install-time: no session exists yet, no concurrent engine access possible
            self.router.gather = ThreadedGather()

    def _new_session(self, sid: int) -> "ShardSession":
        return ShardSession(self, sid)

    def stats(self) -> JSONDict:
        """Adds the router's shape to the core's snapshot."""
        out = super().stats()
        out["shards"] = len(self.router.shards)
        # reprolint: disable-next=R10 -- stats-only read of a monotonic txid allocator; torn values impossible
        out["coordinator_next_txid"] = self.router.coordinator.next_txid
        return out

    def vacuum(self, table: str) -> Any:
        """Vacuum the table on every shard (one engine slot)."""
        with self.scheduler.slot("oltp"):
            return self.router.vacuum(table)

    def _detach(self) -> None:
        if self.config.parallel_scatter_gather:
            from ..shard.router import serial_gather
            # reprolint: disable-next=R10 -- teardown: every session is closed, no concurrent engine access possible
            self.router.gather = serial_gather

    def __repr__(self) -> str:
        return (f"ShardServer(sessions={self.active_sessions}, "
                f"shards={len(self.router.shards)})")


class ShardSession(SessionCore["ShardedDatabase", "ShardTransaction"]):
    """One client's handle onto the served router (single-threaded)."""

    #: what the latest sliced scan asked (for :meth:`explain`)
    _scan_plan: JSONDict | None = None

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> int:
        """Open a global transaction; returns its txid."""
        with self._guard():
            self._require_idle()
            with self._server.scheduler.slot("oltp"):
                self._txn = self._engine.begin()
            return self._txn.id

    def commit(self) -> float:
        """Commit; returns the simulated latency in seconds (the router's
        max-over-shards clock delta across the commit protocol, inside
        the slot)."""
        with self._guard():
            txn = self.txn
            with self._server.scheduler.slot("oltp"):
                t0 = self._engine.sim_now
                self._engine.commit(txn)
                latency = self._engine.sim_now - t0
            return self._committed(latency)

    def abort(self) -> None:
        with self._guard():
            txn = self.txn
            with self._server.scheduler.slot("oltp"):
                self._engine.abort(txn)
            self._txn = None

    # ------------------------------------------------------------------- DML

    def insert(self, table: str,
               row: Sequence[object]) -> tuple[int, RecordID]:
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.insert(self.txn, table, row)

    def update_hit(self, table: str, shard: int, hit: Any,
                   updates: dict[str, object]) -> None:
        """UPDATE one previously-fetched row: pass the ``(shard, hit)``
        pair returned by :meth:`select_hits` / :meth:`range_hits`.  A
        shard-key change moves the row between shards inside the same
        global transaction."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            self._engine.update_hit(self.txn, table, shard, hit, updates)

    def delete_hit(self, table: str, shard: int, hit: Any) -> None:
        """DELETE one previously-fetched row on its shard."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            self._engine.delete_hit(self.txn, table, shard, hit)

    # ----------------------------------------------------------------- reads

    def select(self, index: str, key: Key) -> list[Key]:
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.select(self.txn, index, key)

    def select_hits(self, index: str, key: Key) -> "list[tuple[int, Any]]":
        """Point lookup returning ``(shard, hit)`` handles for
        :meth:`update_hit` / :meth:`delete_hit`."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.select_hits_tagged(self.txn, index, key)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> "list[tuple[int, Any]]":
        """Materialising scatter-gather range read returning ``(shard,
        hit)`` handles (one slot; small OLTP ranges)."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.range_hits_tagged(
                self.txn, index, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Key]:
        """Materialising scatter-gather range read in ONE slot."""
        with self._guard(), self._server.scheduler.slot("oltp"):
            return self._engine.range_select(self.txn, index, lo, hi,
                                             lo_incl=lo_incl,
                                             hi_incl=hi_incl)

    def batch_scan(self, index: str, lo: Key | None = None,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True,
                   slice_rows: int | None = None
                   ) -> Generator[Key, None, None]:
        """Sliced scatter-gather scan: global key order, slot per slice.

        Asks only the shards that can own a row of the range, keeps one
        buffer per asked shard, refills only the empty ones and emits —
        in merged ``(key, shard)`` order — what lies below every unpulled
        tail (module docstring); ownership filtering runs on the fetched
        rows, so rebalance residue is never emitted.
        """
        txn = self.txn
        router = self._engine
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

    # -------------------------------------------------------------- plumbing

    def _refill(self, txn: "ShardTransaction", index: str, stamp: object,
                runs: list[_Run], rest: _Bounds,
                want: int) -> tuple[object, list[_Run]]:
        """One scheduler slot: (re)plan over ``rest`` — the range from the
        frontier on — when the buffers' stamp (own writes, layout) no
        longer holds, then pull one bounded cursor run for every asked
        shard whose buffer is empty.  The pulls go through the router's
        ``gather`` hook, so a parallel-configured server overlaps them."""
        router = self._engine
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
        router = self._engine
        # reprolint: disable-next=R10 -- catalog is frozen after setup
        info = router.shards[0].catalog.index(index)
        by_shard: dict[int, list["SearchHit"]] = {}
        for _key, _rank, shard, hit in merged:
            by_shard.setdefault(shard, []).append(hit)
        # _fetch_hits is 1:1 on heap/SIAS stores (the only kinds sharded
        # tables allow), so per-shard streams stay aligned with `merged`;
        # the ownership filter flags residue entries without compacting
        fetched: dict[int, Iterator[tuple[Any, bool]]] = {}
        with self._guard():
            with self._server.scheduler.slot("scan"):
                for shard, hits in by_shard.items():
                    db = router.shards[shard]
                    table = db.catalog.table(info.table)
                    row_hits = db.executor._fetch_hits(
                        txn.on(shard), table, hits)
                    fetched[shard] = zip(row_hits, router.owned_flags(
                        shard, info.table,
                        (rh.version.data for rh in row_hits)))
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
            row_hit, owned = next(fetched[shard])
            if owned:
                rows.append(row_hit.row)
        return rows

    def explain(self) -> JSONDict:
        return {**super().explain(), "scan": self._scan_plan}


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
