"""Concurrent serving over a sharded router (DESIGN.md §16.6).

:class:`ShardServer` / :class:`ShardSession` bind the serving cores
(:class:`~repro.serve.server.ServerCore`,
:class:`~repro.serve.session.SessionCore`) to one
:class:`~repro.shard.router.ShardedDatabase`: the FIFO slot confines
router + coordinator + every shard to one thread at a time — a scatter
read visits its shards on the session's own thread — and what is written
here is only what a router spells differently: the statements and the
commit protocol.  The sliced scatter-gather scan is the core's one
sliced scan over the router's many legs.

There is no :class:`~repro.serve.group_commit.GroupCommitter` here: the
router's own commit protocol already decides how many WAL appends a
commit costs (one on the touched shard, or the 2PC marker flow), and
batching across *different shards'* WALs would couple devices the
sharding exists to decouple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from ..storage.recordid import RecordID
from ..types import JSONDict, Key, Row
from .config import ServeConfig
from .server import ServerCore
from .session import SessionCore

if TYPE_CHECKING:
    from ..shard.router import ShardedDatabase
    from ..shard.txn import ShardTransaction


class ShardServer(ServerCore["ShardedDatabase", "ShardSession"]):
    """Multiplexes concurrent client sessions over a sharded router."""

    def __init__(self, router: "ShardedDatabase",
                 config: ServeConfig | None = None) -> None:
        super().__init__(router, config)
        self.router = router

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

    def __repr__(self) -> str:
        return (f"ShardServer(sessions={self.active_sessions}, "
                f"shards={len(self.router.shards)})")


class ShardSession(SessionCore["ShardedDatabase", "ShardTransaction"]):
    """One client's handle onto the served router (single-threaded)."""

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> int:
        """Open a global transaction; returns its txid."""
        with self._guard():
            self._require_idle()
            with self._server.scheduler.slot("oltp"):
                self._txn = self._engine.begin()
            return self._txn.id

    def commit(self) -> float:
        """Commit; returns the simulated latency in seconds: the largest
        advance of any one clock (the router's or a shard's) across the
        commit protocol, inside the slot — the commit's own time, not how
        far it moved the busiest clock."""
        with self._guard():
            txn = self.txn
            engine = self._engine
            clocks = [engine.clock, *(db.clock for db in engine.shards)]
            with self._server.scheduler.slot("oltp"):
                t0 = [clock.now for clock in clocks]
                engine.commit(txn)
                latency = max(clock.now - t
                              for clock, t in zip(clocks, t0))
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
                   ) -> Generator[Row, None, None]:
        """The core's sliced scan; on this class for the tracer (§15.1)."""
        yield from super().batch_scan(index, lo, hi, lo_incl=lo_incl,
                                      hi_incl=hi_incl, slice_rows=slice_rows)
