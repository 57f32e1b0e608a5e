"""The serving facade: one engine, many sessions (DESIGN.md §15).

:class:`ServerCore` is what a server *is*, whatever it serves:

* the :class:`~repro.serve.scheduler.FairScheduler` — a FIFO engine slot
  confining all engine state to one thread at a time;
* the session registry — up to ``max_sessions`` concurrently open
  sessions;
* the five ``serve.*`` instruments and the teardown order (sessions,
  then what the binding attached, then the scheduler).

:class:`Server` binds it to one :class:`~repro.engine.database.Database`
and adds the :class:`~repro.serve.group_commit.GroupCommitter` —
leader/follower WAL group commit, always present when the database is
durable;
:class:`~repro.serve.shard_server.ShardServer` binds it to a router.

With one session and default knobs the served engine is byte-identical to
driving the database directly: the scheduler degenerates to an
uncontended mutex and every commit group has size one, appending exactly
the records a direct ``txn.commit()`` would (the golden-trace determinism
suite pins this).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from types import TracebackType
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from ..errors import SessionError
from ..obs.registry import LATENCY_BUCKETS_US
from ..types import JSONDict
from .config import ServeConfig
from .group_commit import GroupCommitter
from .scheduler import FairScheduler
from .session import E, Session, SessionCore

if TYPE_CHECKING:
    from typing import Self

    from ..engine.database import Database

S = TypeVar("S", bound="SessionCore[Any, Any]")


class ServerCore(ABC, Generic[E, S]):
    """Multiplexes concurrent client sessions over one engine handle."""

    def __init__(self, engine: E, config: ServeConfig | None) -> None:
        # reprolint: confined=engine
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.scheduler = FairScheduler()
        # registry lock: leaf lock, never held while acquiring any other
        # reprolint: lock-rank=LEAF -- session registry only
        self._registry_lock = threading.Lock()
        self._sessions: dict[int, S] = {}
        self._next_sid = 1
        self._closed = False
        self._obs = engine.obs
        if self._obs is not None:
            registry = self._obs.registry
            self._m_opened = registry.counter("serve.sessions.opened")
            self._m_closed = registry.counter("serve.sessions.closed")
            self._g_active = registry.gauge("serve.sessions.active")
            self._m_slices = registry.counter("serve.scan.slices")
            self._m_commit_latency = registry.histogram(
                "serve.commit.latency_us", LATENCY_BUCKETS_US)

    # -------------------------------------------------------------- sessions

    @abstractmethod
    def _new_session(self, sid: int) -> S: ...

    def session(self) -> S:
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
            session = self._new_session(sid)
            self._sessions[sid] = session
        if self._obs is not None:
            self._m_opened.inc()
            self._g_active.set(self.active_sessions)
        return session

    def _discard(self, session: "SessionCore[Any, Any]") -> None:
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

    def stats(self) -> JSONDict:
        """Serving-layer snapshot: scheduler fairness; a binding adds its
        engine's shape."""
        return {
            "active_sessions": self.active_sessions,
            "scheduler": {
                "ticks": self.scheduler.ticks,
                "kinds": self.scheduler.stats(),
            },
        }

    # ------------------------------------------------------------- lifecycle

    def _detach(self) -> None:
        """Stop what the binding attached to the engine (every session is
        closed, the scheduler still open)."""

    def close(self) -> None:
        """Abort open sessions, detach from the engine, stop the
        scheduler."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        self._detach()
        self.scheduler.close()

    def __enter__(self) -> "Self":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()


class Server(ServerCore["Database", Session]):
    """Multiplexes concurrent client sessions over one database."""

    def __init__(self, db: "Database",
                 config: ServeConfig | None = None) -> None:
        super().__init__(db, config)
        self.db = db
        self.committer: GroupCommitter | None = None
        if db.durability is not None:
            self.committer = GroupCommitter(db.durability, db.txn,
                                            self.scheduler, obs=db.obs)

    def _new_session(self, sid: int) -> Session:
        return Session(self, sid)

    def stats(self) -> JSONDict:
        """Adds the group-commit shape to the core's snapshot."""
        out = super().stats()
        if self.committer is not None:
            out["group_commit"] = self.committer.stats.as_dict()
        if self.db.durability is not None:
            # reprolint: disable-next=R10 -- stats-only read of a monotonic int counter; torn values impossible
            out["wal_appends"] = self.db.durability.wal.appends
        return out

    def vacuum(self, table: str) -> object:
        """Vacuum one table in an exclusive engine slot."""
        with self.scheduler.slot("oltp"):
            return self.db.vacuum(table)

    def _detach(self) -> None:
        if self.committer is not None:
            self.committer.close()

    def __repr__(self) -> str:
        return (f"Server(sessions={self.active_sessions}, "
                f"group_commit={self.committer is not None})")
