"""Transactions."""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Union

from ..errors import TransactionStateError
from .snapshot import Snapshot

if TYPE_CHECKING:
    from .manager import TransactionManager


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction: id (the logical timestamp), snapshot and state.

    The transaction id doubles as the creation timestamp placed on every
    tuple-version and MV-PBT index record the transaction writes (the paper's
    "logical transaction timestamp").
    """

    __slots__ = ("id", "snapshot", "state", "_manager", "writes")

    def __init__(self, txid: int, snapshot: Snapshot,
                 manager: "TransactionManager") -> None:
        self.id = txid
        self.snapshot = snapshot
        self.state = TxnState.ACTIVE
        self._manager = manager
        #: base-table DML statements so far (the durability controller's
        #: wrote-nothing predicate reads it at commit)
        self.writes = 0

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.id} is {self.state.value}")

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self.state is TxnState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def __repr__(self) -> str:
        return f"Txn(id={self.id}, {self.state.value})"


class Replay:
    """The decided writer of a version already in the table, replayed
    into an index built late: its timestamp as ``id``, and no state,
    unique check or commit to wait for."""

    __slots__ = ("id",)

    def __init__(self, ts: int) -> None:
        self.id = ts

    def require_active(self) -> None:
        pass


#: who an index write is for: a live transaction or a replayed writer
Writer = Union[Transaction, Replay]
