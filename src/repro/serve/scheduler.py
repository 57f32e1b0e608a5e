"""The fair scheduler: a FIFO engine slot with fairness accounting.

The single-caller engine (trees, buffer pool, simulated device, clock,
tracer) is not internally thread-safe; the serve layer confines all of it
to the holder of one **engine slot**.  The scheduler hands the slot out in
strict FIFO order — a *ticket lock* — which is what makes multi-session
interleaving fair:

* short OLTP transactions acquire the slot once per operation (begin, a
  DML statement, the commit drain);
* long analytical scans acquire it once per **slice**
  (:meth:`~repro.serve.session.SessionCore.batch_scan` and
  :meth:`~repro.serve.session.SessionCore.gather_rows` release it between
  pulls and fetches), so between any two slices of a scan every waiting
  writer is granted exactly once before the scan re-enters;
* the group-commit leader acquires it once per **group** for the batched
  WAL append.

Fairness bound (pinned by ``tests/unit/test_serve_fairness.py``): with
FIFO grants, a request that finds ``w`` waiters ahead of it is granted
after exactly ``w`` further grants — so no commit can be delayed by more
than (number of concurrently active sessions + 1) scheduler ticks, no
matter how long the concurrent scans are.  One *tick* = one grant of the
engine slot.

The slot participates in the rank order as ENGINE (rank 10, the lowest):
a thread must hold nothing when it requests the slot, and every lock the
engine takes while holding it nests above (see :mod:`repro.serve.locks`).
"""

from __future__ import annotations

import threading
from collections import deque
from types import TracebackType

from ..errors import ConcurrencyError
from .locks import RANK_ENGINE, note_acquired, note_released


class KindStats:
    """Per-request-kind fairness accounting (oltp / scan / commit)."""

    __slots__ = ("grants", "total_wait_ticks", "max_wait_ticks")

    def __init__(self) -> None:
        self.grants = 0
        self.total_wait_ticks = 0
        self.max_wait_ticks = 0

    def note(self, wait_ticks: int) -> None:
        self.grants += 1
        self.total_wait_ticks += wait_ticks
        if wait_ticks > self.max_wait_ticks:
            self.max_wait_ticks = wait_ticks

    def as_dict(self) -> dict[str, float]:
        return {
            "grants": self.grants,
            "max_wait_ticks": self.max_wait_ticks,
            "mean_wait_ticks": (self.total_wait_ticks / self.grants
                                if self.grants else 0.0),
        }


class _Slot:
    """Context manager holding the engine slot for one grant."""

    __slots__ = ("_scheduler",)

    def __init__(self, scheduler: "FairScheduler") -> None:
        self._scheduler = scheduler

    def __enter__(self) -> "_Slot":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self._scheduler.release()


class FairScheduler:
    """FIFO ticket lock over the engine, with per-kind wait statistics."""

    def __init__(self) -> None:
        # scheduler bookkeeping only; never held across engine work
        # (released before the slot is granted)
        # reprolint: lock-rank=LEAF
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._queue: deque[int] = deque()
        self._next_ticket = 1
        self._holder: int | None = None
        self._ticks = 0
        self._closed = False
        self.kind_stats: dict[str, KindStats] = {}

    # --------------------------------------------------------------- acquire

    def slot(self, kind: str) -> _Slot:
        """Acquire the engine slot (blocking, FIFO) as a context manager."""
        self.acquire(kind)
        return _Slot(self)

    def acquire(self, kind: str) -> int:
        """Wait for and take the engine slot; returns the wait in ticks."""
        with self._cond:
            if self._closed:
                raise ConcurrencyError("scheduler is closed")
            ticket = self._next_ticket
            self._next_ticket += 1
            self._queue.append(ticket)
            enqueue_ticks = self._ticks
            while not (self._holder is None and self._queue[0] == ticket):
                self._cond.wait()
                if self._closed:
                    self._queue.remove(ticket)
                    self._cond.notify_all()
                    raise ConcurrencyError("scheduler closed while waiting")
            self._queue.popleft()
            self._holder = ticket
            self._ticks += 1
            wait_ticks = self._ticks - 1 - enqueue_ticks
            stats = self.kind_stats.get(kind)
            if stats is None:
                stats = self.kind_stats[kind] = KindStats()
            stats.note(wait_ticks)
        note_acquired(RANK_ENGINE, "serve.engine")
        return wait_ticks

    def release(self) -> None:
        note_released(RANK_ENGINE, "serve.engine")
        with self._cond:
            if self._holder is None:
                raise ConcurrencyError(
                    "releasing an engine slot nobody holds")
            self._holder = None
            self._cond.notify_all()

    # ------------------------------------------------------------ inspection

    @property
    def ticks(self) -> int:
        """Total grants so far (the fairness clock)."""
        return self._ticks

    @property
    def queue_depth(self) -> int:  # reprolint: disable=R12 -- tests/unit/test_serve_fairness.py watches the wait queue
        return len(self._queue)

    def stats(self) -> dict[str, dict[str, float]]:
        with self._mutex:
            return {kind: ks.as_dict()
                    for kind, ks in sorted(self.kind_stats.items())}

    def close(self) -> None:
        """Refuse further acquisitions and wake all waiters with an error."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __repr__(self) -> str:
        return (f"FairScheduler(ticks={self._ticks}, "
                f"waiting={len(self._queue)})")
