"""Transaction commit status (the pg_xact / CLOG equivalent).

Version records and MV-PBT index records carry the *transaction id* of their
creator as logical timestamp.  Whether such a timestamp denotes a committed
change is resolved against the :class:`CommitLog`.

The log is backed by a flat byte array indexed by transaction id (ids are
small, dense and monotonically increasing), so every status probe on the
visibility hot path is one O(1) array read instead of a dict probe.  It also
maintains a *committed floor*: every id below
:attr:`CommitLog.committed_floor` has committed, so a page whose timestamps
all lie below it needs no per-record status probe.  An id that is never
registered reads IN_PROGRESS and stalls the floor for good.

Thread safety (DESIGN.md §15.2): the log is one of the explicitly
synchronized transaction components behind the serve layer.  All
**mutations** (register / set_committed / set_aborted / restore) take the
internal mutex.  **Reads stay lock-free** and are safe by construction:

* a status byte transitions ``IN_PROGRESS → COMMITTED|ABORTED`` exactly
  once and never changes again, so a racing reader sees either the old or
  the new value — both of which are answers the caller could have observed
  under any serialization (an in-progress answer is always the
  conservative "invisible");
* ``committed_floor`` is a plain int that only ever advances; a stale
  read is merely conservative (page-level batch visibility falls back to
  per-record checks);
* the byte array only grows (``_ensure`` extends, never shrinks), and a
  CPython ``bytearray`` index read is atomic with respect to a concurrent
  ``extend``.

``restore`` is the one non-monotone mutation; it is a recovery entry point
and documented single-threaded (no sessions exist during recovery).
"""

from __future__ import annotations

import threading

from enum import Enum


class TxnStatus(Enum):
    IN_PROGRESS = "in_progress"
    COMMITTED = "committed"
    ABORTED = "aborted"


#: byte codes of the backing array (0 doubles as "unknown")
_IN_PROGRESS = 0
_COMMITTED = 1
_ABORTED = 2

_STATUS_OF = {_IN_PROGRESS: TxnStatus.IN_PROGRESS,
              _COMMITTED: TxnStatus.COMMITTED,
              _ABORTED: TxnStatus.ABORTED}


class CommitLog:
    """Status by transaction id.

    Unknown ids are reported as IN_PROGRESS, which is safe: visibility treats
    them as invisible.
    """

    __slots__ = ("_status", "_known", "_committed_floor", "_aborted_ids",
                 "_lock")

    def __init__(self) -> None:
        self._status = bytearray(1)      # index 0 unused; txids start at 1
        self._known: set[int] = set()    # registered ids (only for __len__)
        self._committed_floor = 1
        #: all ids ever aborted — the durability manifest persists this set
        #: (compact pg_xact model: aborts are rare, commits are the default)
        self._aborted_ids: set[int] = set()
        #: guards mutations; reads are lock-free (see module docstring).
        #: Rank TXN_COMMITLOG in the serve layer's lock order (§15.2)
        # reprolint: lock-rank=TXN_COMMITLOG
        self._lock = threading.Lock()

    @property
    def committed_floor(self) -> int:
        """Lowest txid not known to be **committed**.

        Every ``txid < committed_floor`` has durably committed, so a record
        timestamp below the floor is committed-visible to any snapshot whose
        horizon also covers it — the precondition batch page-visibility
        tests once per page instead of once per record.  The floor stops
        at the oldest undecided id and permanently below the first aborted
        id (aborts are rare; the common OLTP trace keeps the floor tight
        against the id frontier).
        """
        return self._committed_floor

    def _ensure(self, txid: int) -> None:
        status = self._status
        if txid >= len(status):
            status.extend(bytes(txid + 1 - len(status)))

    def _advance_committed_floor(self) -> None:
        status = self._status
        mark = self._committed_floor
        end = len(status)
        while mark < end and status[mark] == _COMMITTED:
            mark += 1
        self._committed_floor = mark

    def register(self, txid: int) -> None:
        with self._lock:
            self._ensure(txid)
            self._status[txid] = _IN_PROGRESS
            self._known.add(txid)

    def set_committed(self, txid: int) -> None:
        with self._lock:
            self._ensure(txid)
            self._status[txid] = _COMMITTED
            self._known.add(txid)
            if txid == self._committed_floor:
                self._advance_committed_floor()

    def set_aborted(self, txid: int) -> None:
        with self._lock:
            self._ensure(txid)
            self._status[txid] = _ABORTED
            self._known.add(txid)
            self._aborted_ids.add(txid)

    @property
    def aborted_ids(self) -> set[int]:
        """Every txid ever recorded as aborted (manifest flip input)."""
        with self._lock:
            return set(self._aborted_ids)

    def restore(self, next_txid: int, committed: set[int]) -> None:
        """Recovery bulk-load: every id below ``next_txid`` is decided.

        Ids in ``committed`` become COMMITTED, all others ABORTED — a
        transaction without a durable commit record was never acknowledged.
        Recovery runs before any session exists, so unlike the other
        mutations this one may replace state wholesale.
        """
        with self._lock:
            size = max(next_txid, 1)
            status = bytearray(size)
            known: set[int] = set()
            aborted: set[int] = set()
            for txid in range(1, size):
                if txid in committed:
                    status[txid] = _COMMITTED
                else:
                    status[txid] = _ABORTED
                    aborted.add(txid)
                known.add(txid)
            self._status = status
            self._known = known
            self._aborted_ids = aborted
            self._committed_floor = 1
            self._advance_committed_floor()

    def status(self, txid: int) -> TxnStatus:
        if 0 <= txid < len(self._status):
            return _STATUS_OF[self._status[txid]]
        return TxnStatus.IN_PROGRESS

    def is_committed(self, txid: int) -> bool:
        return (0 <= txid < len(self._status)
                and self._status[txid] == _COMMITTED)

    def is_aborted(self, txid: int) -> bool:
        return (0 <= txid < len(self._status)
                and self._status[txid] == _ABORTED)

    def __len__(self) -> int:
        return len(self._known)
