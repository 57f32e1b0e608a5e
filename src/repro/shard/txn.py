"""One distributed transaction across the shards (DESIGN.md §16.2).

A :class:`ShardTransaction` holds ONE global txid and ONE global snapshot
and joins a shard on first touch: :meth:`ShardTransaction.on` opens the
shard's member :class:`~repro.txn.transaction.Transaction` the first time
a statement reaches that shard (a transaction object's state flips
exactly once, so each shard's manager needs its own).  Begin and finish
are therefore charged only on the shards the transaction acts on.  The
router fans DML to the owning shard's member and tracks which shards were
written — the commit protocol (single-shard fast path vs. two-phase) keys
off that touched set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import TransactionStateError
from ..txn.snapshot import Snapshot
from ..txn.transaction import Transaction, TxnState

if TYPE_CHECKING:
    from .router import ShardedDatabase


class ShardTransaction:
    """One global transaction: one snapshot, a member per joined shard."""

    __slots__ = ("id", "snapshot", "state", "_router", "members", "touched")

    def __init__(self, txid: int, snapshot: Snapshot,
                 router: "ShardedDatabase") -> None:
        self.id = txid
        self.snapshot = snapshot
        self.state = TxnState.ACTIVE
        self._router = router
        #: shard -> its member transaction, in join order
        self.members: dict[int, Transaction] = {}
        #: shards this transaction wrote on (commit-protocol input)
        self.touched: set[int] = set()

    def on(self, shard: int) -> Transaction:
        """The member transaction driving shard ``shard``, joined on the
        first call."""
        member = self.members.get(shard)
        if member is None:
            if self.state is not TxnState.ACTIVE:
                raise TransactionStateError(
                    f"transaction {self.id} is {self.state.value}")
            member = self._router.shards[shard].txn.begin_adopted(
                self.id, self.snapshot)
            self.members[shard] = member
        return member

    def touch(self, shard: int) -> None:
        self.touched.add(shard)

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def writes(self) -> int:
        return sum(member.writes for member in self.members.values())

    def commit(self) -> None:
        self._router.commit(self)

    def abort(self) -> None:
        self._router.abort(self)

    def __enter__(self) -> "ShardTransaction":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self.is_active:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def __repr__(self) -> str:
        return (f"ShardTxn(id={self.id}, {self.state.value}, "
                f"joined={sorted(self.members)}, "
                f"touched={sorted(self.touched)})")
