"""Workload backends: one driver API over the whole serving stack (§18).

The workload runners (:class:`~repro.workloads.ycsb.YCSBRunner`,
:class:`~repro.workloads.tpcc.TPCCRunner`,
:class:`~repro.workloads.chbench.CHBenchmark`) speak one small
transactional API — :class:`WorkloadBackend` / :class:`WorkloadTxn`.
There are two topologies, each driven directly or served:

* :class:`DatabaseBackend` — a single-node
  :class:`~repro.engine.database.Database`, driven directly;
* :class:`ShardedBackend` — a 2PC
  :class:`~repro.shard.router.ShardedDatabase`, driven directly: every
  multi-key transaction whose rows land on different shards commits
  through the two-phase marker flow;
* :class:`ServerBackend` / :class:`ShardServerBackend` — the direct
  backend of the same topology plus one :class:`_SessionPool` over its
  :class:`~repro.serve.server.Server` /
  :class:`~repro.serve.shard_server.ShardServer`: only ``begin``,
  ``vacuum`` and ``close`` are serving-specific (engine-slot confinement,
  group commit or the router's 2PC; analytic reads flow through the
  session's unordered ``gather_rows``, LIMIT scans through its ordered
  sliced scan) — DDL, the load, the clock, ``flush_all`` and
  ``dump_table`` are host-level and inherited.

Row handles are :class:`WorkloadHit` — a ``(shard, RowHit)`` pair (shard
0 on single-node backends) — so hit-based DML (the TPC-C access pattern)
works identically everywhere, including cross-shard row moves.

The load phase goes through :meth:`WorkloadBackend.bulk_insert`, which
the sharded backends implement with
:meth:`~repro.shard.router.ShardedDatabase.bulk_load`: the slots the
rows fall in are first dealt to shards by load (TPC-C's four warehouses
get a shard each), then the rows are partitioned by shard key and each
shard is loaded directly with single-shard fast-path commits.

Backends differ ONLY in simulated cost and protocol, never in results:
the differential oracle (``tests/integration/test_workload_differential
.py``) pins committed-state equality across all of them.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from itertools import chain, compress, islice
from operator import itemgetter
from typing import (TYPE_CHECKING, Any, Generic, NamedTuple, Sequence,
                    TypeVar, Union)

from ..engine.database import Database
from ..engine.executor import RowHit
from ..errors import ConfigError, WorkloadError
from ..shard.router import ShardedDatabase
from ..types import Key, Row

if TYPE_CHECKING:
    from ..serve.config import ServeConfig
    from ..serve.server import Server, ServerCore
    from ..serve.session import Session, SessionCore
    from ..serve.shard_server import ShardServer, ShardSession
    from ..shard.txn import ShardTransaction
    from ..txn.transaction import Transaction

S = TypeVar("S", bound="SessionCore[Any, Any]")

#: anything :func:`as_backend` can adapt
BackendTarget = Union["WorkloadBackend", Database, ShardedDatabase,
                      "Server", "ShardServer"]


class WorkloadHit(NamedTuple):
    """A backend-neutral row handle: the owning shard + the engine hit.

    Single-node backends always tag shard 0; sharded backends tag the
    shard that answered, which makes the handle valid for
    :meth:`WorkloadTxn.update` / :meth:`WorkloadTxn.delete`.
    """

    shard: int
    hit: RowHit

    @property
    def row(self) -> Row:
        return self.hit.row


class WorkloadTxn(ABC):
    """One open transaction on a workload backend."""

    @property
    @abstractmethod
    def is_active(self) -> bool: ...

    @abstractmethod
    def commit(self) -> None: ...

    @abstractmethod
    def abort(self) -> None: ...

    @abstractmethod
    def insert(self, table: str, row: Sequence[object]) -> None: ...

    @abstractmethod
    def select(self, index: str, key: Key) -> list[Row]: ...

    @abstractmethod
    def select_hits(self, index: str, key: Key) -> list[WorkloadHit]: ...

    @abstractmethod
    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Row]: ...

    @abstractmethod
    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> list[WorkloadHit]: ...

    @abstractmethod
    def update(self, table: str, hit: WorkloadHit,
               updates: dict[str, object]) -> None: ...

    @abstractmethod
    def delete(self, table: str, hit: WorkloadHit) -> None: ...

    @abstractmethod
    def scan_limit(self, index: str, lo: Key | None,
                   limit: int) -> list[Row]:
        """The first ``limit`` rows at/after ``lo`` in index-key order
        (the YCSB-E scan shape) — streaming, never materialises the
        tail."""

    @abstractmethod
    def analytic_rows(self, index: str, lo: Key | None,
                      hi: Key | None) -> list[Row]:
        """Analytical range read: the visible rows of ``[lo, hi]`` as a
        multiset, in no particular order (callers group, sum or sort
        them).  Server backends route it through the session's unordered
        ``gather_rows`` (slot per pull and per fetch); direct backends
        fall back to the materialising range select."""


class WorkloadBackend(ABC):
    """One engine stack a workload runner can drive."""

    #: short identifier (YCSBResult.engine et al.)
    name: str

    @abstractmethod
    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]],
                     storage: str = "sias", *,
                     shard_key: Sequence[str] | None = None) -> None: ...

    @abstractmethod
    def create_index(self, name: str, table: str,
                     columns: Sequence[str], *, kind: str = "mvpbt",
                     unique: bool = False, reference: str = "physical",
                     **options: object) -> None: ...

    @abstractmethod
    def begin(self) -> WorkloadTxn: ...

    @property
    @abstractmethod
    def sim_now(self) -> float:
        """The backend's simulated time (max over shards when sharded)."""

    @property
    @abstractmethod
    def shard_count(self) -> int: ...

    @abstractmethod
    def bulk_insert(self, table: str, rows: Sequence[Sequence[object]], *,
                    rows_per_txn: int = 5000) -> int:
        """Load rows in committed chunks; sharded backends partition by
        shard key and bulk-load each shard directly."""

    @abstractmethod
    def vacuum(self, table: str) -> None: ...

    @abstractmethod
    def advance_clock(self, seconds: float) -> None:
        """Charge fixed overhead to the simulated clock (every shard's,
        when sharded).  Host-level: drivers call this between their own
        transactions, never concurrently with engine work."""

    @abstractmethod
    def flush_all(self) -> None: ...

    @abstractmethod
    def dump_table(self, table: str) -> list[Row]:
        """Every committed row under a FRESH snapshot, sorted — the
        differential oracle's state fingerprint.  Host-level inspection:
        served backends read the underlying engine directly."""

    def close(self) -> None:
        """Release serving resources (sessions, schedulers)."""

    def __enter__(self) -> "WorkloadBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# --------------------------------------------------------------- single node


class _DatabaseTxn(WorkloadTxn):
    """Direct single-node transaction."""

    def __init__(self, db: Database, txn: "Transaction") -> None:
        self._db = db
        self._txn = txn

    @property
    def is_active(self) -> bool:
        return self._txn.is_active

    def commit(self) -> None:
        self._txn.commit()

    def abort(self) -> None:
        self._txn.abort()

    def insert(self, table: str, row: Sequence[object]) -> None:
        self._db.insert(self._txn, table, row)

    def select(self, index: str, key: Key) -> list[Row]:
        return self._db.select(self._txn, index, key)

    def select_hits(self, index: str, key: Key) -> list[WorkloadHit]:
        return [WorkloadHit(0, hit) for hit in
                self._db.select_hits(self._txn, index, key)]

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Row]:
        return self._db.range_select(self._txn, index, lo, hi,
                                     lo_incl=lo_incl, hi_incl=hi_incl)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> list[WorkloadHit]:
        return [WorkloadHit(0, hit) for hit in
                self._db.range_hits(self._txn, index, lo, hi,
                                    lo_incl=lo_incl, hi_incl=hi_incl)]

    def update(self, table: str, hit: WorkloadHit,
               updates: dict[str, object]) -> None:
        self._db.update_row(self._txn, table, hit.hit.rid,
                            hit.hit.version, updates)

    def delete(self, table: str, hit: WorkloadHit) -> None:
        self._db.delete_row(self._txn, table, hit.hit.rid,
                            hit.hit.version)

    def scan_limit(self, index: str, lo: Key | None,
                   limit: int) -> list[Row]:
        info = self._db.catalog.index(index)
        return list(chain.from_iterable(self._db.executor.scan_stream(
            self._txn, info, lo, None, limit=limit)))

    def analytic_rows(self, index: str, lo: Key | None,
                      hi: Key | None) -> list[Row]:
        return self.range_select(index, lo, hi)


class DatabaseBackend(WorkloadBackend):
    """The baseline: one :class:`Database`, driven directly."""

    name = "database"

    def __init__(self, db: Database) -> None:
        self.db = db

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]],
                     storage: str = "sias", *,
                     shard_key: Sequence[str] | None = None) -> None:
        self.db.create_table(name, columns, storage)

    def create_index(self, name: str, table: str,
                     columns: Sequence[str], *, kind: str = "mvpbt",
                     unique: bool = False, reference: str = "physical",
                     **options: object) -> None:
        self.db.create_index(name, table, columns, kind=kind,
                             unique=unique, reference=reference, **options)

    def begin(self) -> WorkloadTxn:
        return _DatabaseTxn(self.db, self.db.begin())

    @property
    def sim_now(self) -> float:
        return self.db.clock.now

    @property
    def shard_count(self) -> int:
        return 1

    def bulk_insert(self, table: str, rows: Sequence[Sequence[object]], *,
                    rows_per_txn: int = 5000) -> int:
        if rows_per_txn < 1:
            raise ConfigError(f"rows_per_txn must be >= 1: {rows_per_txn}")
        for start in range(0, len(rows), rows_per_txn):
            txn = self.db.begin()
            for row in rows[start:start + rows_per_txn]:
                self.db.insert(txn, table, row)
            txn.commit()
        return len(rows)

    def vacuum(self, table: str) -> None:
        self.db.vacuum(table)

    def advance_clock(self, seconds: float) -> None:
        self.db.clock.advance(seconds)

    def flush_all(self) -> None:
        self.db.flush_all()

    def dump_table(self, table: str) -> list[Row]:
        txn = self.db.begin()
        try:
            return sorted(self.db.seq_scan(txn, table))
        finally:
            txn.commit()


# ------------------------------------------------------------ sharded router


class _ShardedTxn(WorkloadTxn):
    """Direct global transaction on the 2PC router."""

    def __init__(self, router: ShardedDatabase,
                 txn: "ShardTransaction") -> None:
        self._router = router
        self._txn = txn

    @property
    def is_active(self) -> bool:
        return self._txn.is_active

    def commit(self) -> None:
        self._txn.commit()

    def abort(self) -> None:
        self._txn.abort()

    def insert(self, table: str, row: Sequence[object]) -> None:
        self._router.insert(self._txn, table, row)

    def select(self, index: str, key: Key) -> list[Row]:
        return self._router.select(self._txn, index, key)

    def select_hits(self, index: str, key: Key) -> list[WorkloadHit]:
        return [WorkloadHit(shard, hit) for shard, hit in
                self._router.select_hits_tagged(self._txn, index, key)]

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Row]:
        return self._router.range_select(self._txn, index, lo, hi,
                                         lo_incl=lo_incl, hi_incl=hi_incl)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> list[WorkloadHit]:
        return [WorkloadHit(shard, hit) for shard, hit in
                self._router.range_hits_tagged(self._txn, index, lo, hi,
                                               lo_incl=lo_incl,
                                               hi_incl=hi_incl)]

    def update(self, table: str, hit: WorkloadHit,
               updates: dict[str, object]) -> None:
        self._router.update_hit(self._txn, table, hit.shard, hit.hit,
                                updates)

    def delete(self, table: str, hit: WorkloadHit) -> None:
        self._router.delete_hit(self._txn, table, hit.shard, hit.hit)

    def scan_limit(self, index: str, lo: Key | None,
                   limit: int) -> list[Row]:
        return _sharded_scan_limit(self._router, self._txn, index, lo,
                                   limit)

    def analytic_rows(self, index: str, lo: Key | None,
                      hi: Key | None) -> list[Row]:
        return self.range_select(index, lo, hi)


def _sharded_scan_limit(router: ShardedDatabase, txn: "ShardTransaction",
                        index: str, lo: Key | None,
                        limit: int) -> list[Row]:
    """First ``limit`` owned rows at/after ``lo`` in global key order:
    every shard gives its first ``limit`` owned rows — a LIMIT scan cut in
    the index, re-pulled at double the size while rebalance residue (only
    the fetched row tells) leaves it short — and the runs are k-way
    merged.  A LIMIT below one reads nothing."""
    if limit < 1:
        return []
    info = router.shards[0].catalog.index(index)

    def owned_run(k: int) -> list[Row]:
        db = router.shards[k]
        size = limit
        while True:
            rows = list(chain.from_iterable(db.executor.scan_stream(
                txn.on(k), db.catalog.index(index), lo, None, limit=size)))
            run = list(compress(rows, router.owned_flags(k, info.table,
                                                         rows)))
            if len(run) >= limit or len(rows) < size:
                return run[:limit]
            size *= 2

    # key-tuple order: the order every shard's stream arrives in
    merged = heapq.merge(*(owned_run(k) for k in range(len(router.shards))),
                         key=itemgetter(*info.positions))
    return list(islice(merged, limit))


class ShardedBackend(WorkloadBackend):
    """The 2PC router, driven directly."""

    def __init__(self, router: ShardedDatabase) -> None:
        self.router = router
        self.name = f"sharded-{len(router.shards)}"

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]],
                     storage: str = "sias", *,
                     shard_key: Sequence[str] | None = None) -> None:
        self.router.create_table(name, columns, storage,
                                 shard_key=shard_key)

    def create_index(self, name: str, table: str,
                     columns: Sequence[str], *, kind: str = "mvpbt",
                     unique: bool = False, reference: str = "physical",
                     **options: object) -> None:
        self.router.create_index(name, table, columns, kind=kind,
                                 unique=unique, reference=reference,
                                 **options)

    def begin(self) -> WorkloadTxn:
        return _ShardedTxn(self.router, self.router.begin())

    @property
    def sim_now(self) -> float:
        return self.router.sim_now

    @property
    def shard_count(self) -> int:
        return len(self.router.shards)

    def bulk_insert(self, table: str, rows: Sequence[Sequence[object]], *,
                    rows_per_txn: int = 5000) -> int:
        return self.router.bulk_load(table, rows,
                                     rows_per_txn=rows_per_txn)

    def vacuum(self, table: str) -> None:
        self.router.vacuum(table)

    def advance_clock(self, seconds: float) -> None:
        for db in self.router.shards:
            db.clock.advance(seconds)

    def flush_all(self) -> None:
        self.router.flush_all()

    def dump_table(self, table: str) -> list[Row]:
        txn = self.router.begin()
        try:
            return sorted(self.router.seq_scan(txn, table))
        finally:
            self.router.commit(txn)


# ------------------------------------------------------------- served single


class _SessionTxn(WorkloadTxn):
    """One transaction on a pooled single-node :class:`Session`."""

    def __init__(self, session: "Session") -> None:
        self._session = session
        session.begin()

    @property
    def is_active(self) -> bool:
        return self._session.in_txn

    def commit(self) -> None:
        self._session.commit()

    def abort(self) -> None:
        self._session.abort()

    def insert(self, table: str, row: Sequence[object]) -> None:
        self._session.insert(table, row)

    def select(self, index: str, key: Key) -> list[Row]:
        return self._session.select(index, key)

    def select_hits(self, index: str, key: Key) -> list[WorkloadHit]:
        return [WorkloadHit(0, hit) for hit in
                self._session.select_hits(index, key)]

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Row]:
        return self._session.range_select(index, lo, hi, lo_incl=lo_incl,
                                          hi_incl=hi_incl)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> list[WorkloadHit]:
        return [WorkloadHit(0, hit) for hit in
                self._session.range_hits(index, lo, hi, lo_incl=lo_incl,
                                         hi_incl=hi_incl)]

    def update(self, table: str, hit: WorkloadHit,
               updates: dict[str, object]) -> None:
        self._session.update_row(table, hit.hit.rid, hit.hit.version,
                                 updates)

    def delete(self, table: str, hit: WorkloadHit) -> None:
        self._session.delete_row(table, hit.hit.rid, hit.hit.version)

    def scan_limit(self, index: str, lo: Key | None,
                   limit: int) -> list[Row]:
        return self._session.scan_limit(index, lo, limit)

    def analytic_rows(self, index: str, lo: Key | None,
                      hi: Key | None) -> list[Row]:
        return self._session.gather_rows(index, lo, hi)


class _SessionPool(Generic[S]):
    """The serving-specific half of a served backend: sessions drawn from
    one server, one per concurrently open transaction — so an analytical
    transaction held open across an OLTP slice occupies its own session
    (the CH-benchmark shape)."""

    def __init__(self, server: "ServerCore[Any, S]") -> None:
        self._server = server
        self._sessions: list[S] = []

    def acquire(self) -> S:
        for session in self._sessions:
            if not session.in_txn:
                return session
        session = self._server.session()
        self._sessions.append(session)
        return session

    def close(self) -> None:
        for session in self._sessions:
            session.close()
        self._sessions.clear()
        self._server.close()


class ServerBackend(DatabaseBackend):
    """A multi-session :class:`Server` over one database: the direct
    backend of its topology, with transactions and vacuum going through
    pooled sessions and the engine slot."""

    name = "server"

    def __init__(self, server: "Server") -> None:
        super().__init__(server.db)
        self.server = server
        self._pool = _SessionPool(server)

    def begin(self) -> WorkloadTxn:
        return _SessionTxn(self._pool.acquire())

    def vacuum(self, table: str) -> None:
        self.server.vacuum(table)

    def close(self) -> None:
        self._pool.close()


# ------------------------------------------------------------ served sharded


class _ShardSessionTxn(WorkloadTxn):
    """One global transaction on a pooled :class:`ShardSession`."""

    def __init__(self, session: "ShardSession") -> None:
        self._session = session
        session.begin()

    @property
    def is_active(self) -> bool:
        return self._session.in_txn

    def commit(self) -> None:
        self._session.commit()

    def abort(self) -> None:
        self._session.abort()

    def insert(self, table: str, row: Sequence[object]) -> None:
        self._session.insert(table, row)

    def select(self, index: str, key: Key) -> list[Row]:
        return self._session.select(index, key)

    def select_hits(self, index: str, key: Key) -> list[WorkloadHit]:
        return [WorkloadHit(shard, hit) for shard, hit in
                self._session.select_hits(index, key)]

    def range_select(self, index: str, lo: Key | None, hi: Key | None, *,
                     lo_incl: bool = True,
                     hi_incl: bool = True) -> list[Row]:
        return self._session.range_select(index, lo, hi, lo_incl=lo_incl,
                                          hi_incl=hi_incl)

    def range_hits(self, index: str, lo: Key | None, hi: Key | None, *,
                   lo_incl: bool = True,
                   hi_incl: bool = True) -> list[WorkloadHit]:
        return [WorkloadHit(shard, hit) for shard, hit in
                self._session.range_hits(index, lo, hi, lo_incl=lo_incl,
                                         hi_incl=hi_incl)]

    def update(self, table: str, hit: WorkloadHit,
               updates: dict[str, object]) -> None:
        self._session.update_hit(table, hit.shard, hit.hit, updates)

    def delete(self, table: str, hit: WorkloadHit) -> None:
        self._session.delete_hit(table, hit.shard, hit.hit)

    def scan_limit(self, index: str, lo: Key | None,
                   limit: int) -> list[Row]:
        return self._session.scan_limit(index, lo, limit)

    def analytic_rows(self, index: str, lo: Key | None,
                      hi: Key | None) -> list[Row]:
        return self._session.gather_rows(index, lo, hi)


class ShardServerBackend(ShardedBackend):
    """A multi-session :class:`ShardServer` over the 2PC router: the
    direct sharded backend, with transactions and vacuum going through
    pooled sessions and the engine slot.

    Analytic reads flow through the session's unordered gather
    (``gather_rows``), LIMIT scans through its ordered sliced scan."""

    def __init__(self, server: "ShardServer") -> None:
        super().__init__(server.router)
        self.server = server
        self.name = f"shard-server-{len(self.router.shards)}"
        self._pool = _SessionPool(server)

    def begin(self) -> WorkloadTxn:
        return _ShardSessionTxn(self._pool.acquire())

    def vacuum(self, table: str) -> None:
        self.server.vacuum(table)

    def close(self) -> None:
        self._pool.close()


# ----------------------------------------------------------------- adapters


def as_backend(target: BackendTarget) -> WorkloadBackend:
    """Adapt any stack layer to the workload API (identity on backends)."""
    from ..serve.server import Server
    from ..serve.shard_server import ShardServer
    if isinstance(target, WorkloadBackend):
        return target
    if isinstance(target, Database):
        return DatabaseBackend(target)
    if isinstance(target, ShardedDatabase):
        return ShardedBackend(target)
    if isinstance(target, Server):
        return ServerBackend(target)
    if isinstance(target, ShardServer):
        return ShardServerBackend(target)
    raise WorkloadError(f"cannot adapt {type(target).__name__} to a "
                        f"WorkloadBackend")


def served_backend(db: Database,
                   config: "ServeConfig | None" = None) -> ServerBackend:
    """Convenience: open a :class:`Server` over ``db`` and wrap it."""
    return ServerBackend(db.serve(config))


def shard_served_backend(router: ShardedDatabase,
                         config: "ServeConfig | None" = None
                         ) -> ShardServerBackend:
    """Convenience: open a :class:`ShardServer` over ``router``."""
    return ShardServerBackend(router.serve(config))
