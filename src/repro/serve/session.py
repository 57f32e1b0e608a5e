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

Analytical scans go through ``batch_scan``: a generator that pulls
one *slice* of visible hits per engine slot and yields between slices, so
a long scan never starves concurrent writers (the §15.1 fairness
contract).  Slicing is snapshot-exact: every slice re-enters the index
with the same transaction snapshot and continues at the key boundary, so
the concatenation of slices equals one monolithic
:meth:`~repro.core.tree.MVPBT.range_scan` of the same snapshot.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from itertools import islice
from types import TracebackType
from typing import (TYPE_CHECKING, Any, Callable, Generator, Generic,
                    Protocol, Sequence, TypeVar)

from ..errors import SessionError, TransactionStateError, WriteConflictError
from ..storage.recordid import RecordID
from ..types import JSONDict, Key
from .config import check_slice_rows

if TYPE_CHECKING:
    from typing import Self

    from ..core.records import MVPBTRecord
    from ..engine.database import Database
    from ..engine.executor import RowHit
    from ..obs.core import Observability
    from ..txn.transaction import Transaction
    from .server import Server, ServerCore


class EngineLike(Protocol):
    """What the serving cores ask of an engine themselves: the obs facade
    and the keyed DML that reads the same on both topologies.  Everything
    else is a binding's business."""

    @property
    def obs(self) -> "Observability | None": ...

    def update_by_key(self, txn: Any, index_name: str, key: Key,
                      updates: dict[str, object]) -> int: ...

    def delete_by_key(self, txn: Any, index_name: str, key: Key) -> int: ...


class TxnLike(Protocol):
    """What the session core asks of an engine's transaction object."""

    @property
    def id(self) -> int: ...

    @property
    def is_active(self) -> bool: ...

    def abort(self) -> None: ...


E = TypeVar("E", bound=EngineLike)
T = TypeVar("T", bound=TxnLike)


class SessionCore(ABC, Generic[E, T]):
    """What a session *is*, whatever engine it is bound to: the one open
    transaction, the single-driver busy guard, the closed / no-transaction
    checks, ``run`` with its retry loop, ``close``.  A binding adds the
    statements (how its engine spells them), the commit protocol and the
    sliced scan (DESIGN.md §15.1)."""

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

    @abstractmethod
    def batch_scan(self, index: str, lo: Key | None = None,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True,
                   slice_rows: int | None = None
                   ) -> Generator[Key, None, None]: ...

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
        """COUNT(*) via the sliced scan (slot per slice)."""
        return sum(1 for _ in self.batch_scan(index, lo, hi))

    def scan_limit(self, index: str, lo: Key | None,
                   limit: int) -> list[Key]:
        """The first ``limit`` rows at/after ``lo``: a sliced scan whose
        slices are sized by the LIMIT (capped by ``scan_slice_rows``) and
        which is closed as soon as the rows are out."""
        stream = self.batch_scan(index, lo, None, slice_rows=min(
            limit, self._server.config.scan_slice_rows))
        try:
            return list(islice(stream, limit))
        finally:
            stream.close()

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

    def explain(self) -> JSONDict:
        return {"session": self.id, "in_txn": self.in_txn,
                "commits": self.commits, "closed": self._closed}

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

        With group commit enabled the drain happens in this session's
        engine slot, but the WAL append is batched with concurrently
        committing sessions by the group-commit leader.  A transaction
        that wrote nothing bypasses the group queue and does no I/O.
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
                   ) -> Generator[Key, None, None]:
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
        txn = self.txn
        # reprolint: disable-next=R10 -- catalog is frozen after setup (no DDL during serving); plan-time read needs no slot
        info = self._engine.catalog.index(index)
        if not info.index_only:
            # version-oblivious paths have no streaming cursor: one slot
            with self._guard():
                with self._server.scheduler.slot("scan"):
                    rows = self._engine.range_select(txn, index, lo, hi,
                                                     lo_incl=lo_incl,
                                                     hi_incl=hi_incl)
            yield from rows
            return
        limit = check_slice_rows(
            self._server.config.scan_slice_rows if slice_rows is None
            else slice_rows)
        tree = info.mvpbt
        # reprolint: disable-next=R10 -- catalog is frozen after setup
        table = self._engine.catalog.table(info.table)
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
            resolved = self._engine.executor._fetch_hits(txn, table, hits)
        return [hit.row for hit in resolved]
