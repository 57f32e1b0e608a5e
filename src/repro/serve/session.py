"""Per-client session handles (DESIGN.md §15.1).

A :class:`Session` is one client's stateful connection to the engine: it
owns at most one open transaction at a time and translates every call
into engine work performed inside a fair-scheduler slot.  Sessions are
cheap; a server multiplexes up to ``max_sessions`` of them over the one
underlying :class:`~repro.engine.database.Database`.

A session is driven by **one thread at a time** (the pooled
:class:`~repro.serve.executor.SessionExecutor` guarantees this; hand-held
sessions must not be shared between threads mid-operation — enforced
with a cheap busy flag that raises :class:`~repro.errors.SessionError`
on overlap).

Analytical scans go through :meth:`batch_scan`: a generator that pulls
one *slice* of visible hits per engine slot and yields between slices, so
a long scan never starves concurrent writers (the §15.1 fairness
contract).  Slicing is snapshot-exact: every slice re-enters the index
with the same transaction snapshot and continues at the key boundary, so
the concatenation of slices equals one monolithic
:meth:`~repro.core.tree.MVPBT.range_scan` of the same snapshot.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..errors import SessionError, TransactionStateError
from ..storage.recordid import RecordID
from ..types import JSONDict, Key
from .config import check_slice_rows

if TYPE_CHECKING:
    from ..core.records import MVPBTRecord
    from ..engine.executor import RowHit
    from ..txn.transaction import Transaction
    from .server import Server


class Session:
    """One client's handle onto the served engine."""

    def __init__(self, server: "Server", sid: int) -> None:
        self._server = server
        self._db = server.db
        self.id = sid
        self._txn: "Transaction | None" = None
        self._closed = False
        self._busy_by: int | None = None
        #: commits acknowledged through this session
        self.commits = 0
        #: simulated seconds the last commit spent from drain to ack
        self.last_commit_latency_s = 0.0

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> int:
        """Open a transaction; returns its txid."""
        with self._guard():
            if self._txn is not None:
                raise SessionError(
                    f"session {self.id}: transaction {self._txn.id} is "
                    f"still open (no nested transactions)")
            with self._server.scheduler.slot("oltp"):
                self._txn = self._db.begin()
            return self._txn.id

    def commit(self) -> float:
        """Commit the open transaction; returns the simulated commit
        latency in seconds (drain request to durability acknowledgement).

        With group commit enabled the drain happens in this session's
        engine slot, but the WAL append is batched with concurrently
        committing sessions by the group-commit leader.  A transaction
        that wrote nothing bypasses the group queue and does no I/O.
        """
        with self._guard():
            txn = self._require_txn()
            server = self._server
            clock = self._db.clock
            # reprolint: disable-next=R10 -- monotonic sim-clock read; latency must span the whole commit, not just the slot
            t0 = clock.now
            committer = server.committer
            durability = self._db.durability
            records: "list[tuple[str, MVPBTRecord]] | None" = None
            with server.scheduler.slot("oltp"):
                txn.require_active()
                if (committer is None or durability is None
                        or durability.wrote_nothing(txn)):
                    # nothing to batch: the plain path, whose hook elides
                    # the WAL append of a commit that wrote nothing
                    self._db.txn.commit(txn)
                else:
                    records = durability.drain_commit_records(txn)
            if committer is not None and records is not None:
                # a failed append leaves the transaction ACTIVE: the
                # session stays usable and the caller decides
                committer.commit(txn, records)
            self._txn = None
            self.commits += 1
            # reprolint: disable-next=R10 -- monotonic sim-clock read
            latency = clock.now - t0
            self.last_commit_latency_s = latency
            server.note_commit_latency(latency)
            return latency

    def abort(self) -> None:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                self._db.txn.abort(txn)
            self._txn = None

    def run(self, fn: Callable[["Session"], Any], retries: int = 3) -> Any:
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
    def txn(self) -> "Transaction":
        """The open transaction (for host-level integration/tests)."""
        return self._require_txn()

    def close(self) -> None:
        """Abort any open transaction and release the session slot."""
        if self._closed:
            return
        if self._txn is not None and self._txn.is_active:
            with self._server.scheduler.slot("oltp"):
                self._db.txn.abort(self._txn)
        self._txn = None
        self._closed = True
        self._server._discard(self)

    # ------------------------------------------------------------------- DML

    def insert(self, table: str,
               row: Sequence[object]) -> tuple[int, RecordID]:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._db.insert(txn, table, row)

    def update_by_key(self, index: str, key: Key,
                      updates: dict[str, object]) -> int:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._db.update_by_key(txn, index, key, updates)

    def delete_by_key(self, index: str, key: Key) -> int:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._db.delete_by_key(txn, index, key)

    def update_row(self, table: str, rid: RecordID, version: Any,
                   updates: dict[str, object]) -> None:
        """UPDATE one previously-fetched row (hit-handle DML: pass the
        ``rid``/``version`` of a :class:`~repro.engine.executor.RowHit`
        obtained in this transaction)."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                self._db.update_row(txn, table, rid, version, updates)

    def delete_row(self, table: str, rid: RecordID, version: Any) -> None:
        """DELETE one previously-fetched row (hit-handle DML)."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                self._db.delete_row(txn, table, rid, version)

    # ----------------------------------------------------------------- reads

    def select(self, index: str, key: Key) -> list[Key]:
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._db.select(txn, index, key)

    def select_hits(self, index: str, key: Key) -> "list[RowHit]":
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._db.select_hits(txn, index, key)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> "list[RowHit]":
        """Materialising range read returning row-hit handles (one slot;
        small OLTP ranges — analytical scans use :meth:`batch_scan`)."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._db.range_hits(txn, index, lo, hi,
                                           lo_incl=lo_incl,
                                           hi_incl=hi_incl)

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True, hi_incl: bool = True) -> list[Key]:
        """Materialising range read in ONE slot (small ranges, OLTP)."""
        with self._guard():
            txn = self._require_txn()
            with self._server.scheduler.slot("oltp"):
                return self._db.range_select(txn, index, lo, hi,
                                             lo_incl=lo_incl,
                                             hi_incl=hi_incl)

    def batch_scan(self, index: str, lo: Key | None = None,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True,
                   slice_rows: int | None = None) -> Iterator[Key]:
        """Sliced analytical scan: yields visible rows in key order,
        releasing the engine slot between slices.

        Each slice is an independent bounded cursor pull against the
        session's (fixed) snapshot, continued at a key boundary — so
        interleaved commits, evictions or merges between slices can never
        change what this snapshot sees, and rows are never duplicated or
        skipped.  A key whose duplicate run exceeds the slice size grows
        the slice until the run fits (keys are never split across a
        continuation boundary).
        """
        txn = self._require_txn()
        # reprolint: disable-next=R10 -- catalog is frozen after setup (no DDL during serving); plan-time read needs no slot
        info = self._db.catalog.index(index)
        if not info.index_only:
            # version-oblivious paths have no streaming cursor: one slot
            with self._guard():
                with self._server.scheduler.slot("scan"):
                    rows = self._db.range_select(txn, index, lo, hi,
                                                 lo_incl=lo_incl,
                                                 hi_incl=hi_incl)
            yield from rows
            return
        limit = check_slice_rows(
            self._server.config.scan_slice_rows if slice_rows is None
            else slice_rows)
        tree = info.mvpbt
        # reprolint: disable-next=R10 -- catalog is frozen after setup
        table = self._db.catalog.table(info.table)
        cur_lo, cur_incl = lo, lo_incl
        while True:
            want = limit
            while True:
                with self._guard():
                    with self._server.scheduler.slot("scan"):
                        self._server.note_scan_slice()
                        hits = tree.scan_limit(txn, cur_lo, want + 1, hi,
                                               lo_incl=cur_incl,
                                               hi_incl=hi_incl)
                if len(hits) <= want:
                    # final slice: the range is exhausted
                    for row in self._rows_for(txn, table, hits):
                        yield row
                    return
                boundary = hits[want].key
                emit = [h for h in hits if h.key < boundary]
                if emit:
                    break
                # one key's duplicate run exceeds the slice: grow and
                # retry so the key is never split across slices
                want *= 2
            for row in self._rows_for(txn, table, emit):
                yield row
            cur_lo, cur_incl = boundary, True

    def count_range(self, index: str, lo: Key | None,
                    hi: Key | None) -> int:
        """Index-only COUNT(*) via the sliced scan (slot per slice)."""
        return sum(1 for _ in self.batch_scan(index, lo, hi))

    # -------------------------------------------------------------- plumbing

    def _rows_for(self, txn: "Transaction", table: Any,
                  hits: list[Any]) -> list[Key]:
        """Materialise rows for one slice's index-only hits.

        Base-table fetches go through the buffer pool — engine state — so
        they need their own slot; delegating to the executor's fetch path
        keeps delta-chain reconstruction semantics identical to a
        monolithic scan."""
        if not hits:
            return []
        with self._server.scheduler.slot("scan"):
            resolved = self._db.executor._fetch_hits(txn, table, hits)
        return [hit.row for hit in resolved]

    def _require_txn(self) -> "Transaction":
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
                "commits": self.commits, "closed": self._closed}

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"txn={self._txn.id}" if self._txn else "idle")
        return f"Session(id={self.id}, {state})"


class _BusyGuard:
    """Catches two threads driving one session concurrently (misuse)."""

    __slots__ = ("_session",)

    def __init__(self, session: Session) -> None:
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
