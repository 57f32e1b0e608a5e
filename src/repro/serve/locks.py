"""Lock-ordering discipline for the serve layer (DESIGN.md §15.2).

Every lock in the concurrent engine has a documented **rank**; a thread
may only acquire a lock whose rank is *strictly greater* than the highest
rank it already holds (re-entrant re-acquisition of the same lock is
allowed).  Because every thread acquires in ascending rank order, no
cyclic wait can form — the classic total-order deadlock-freedom argument.

The rank table itself is stated once, in DESIGN.md §15.2 (ENGINE →
TXN_MANAGER → TXN_COMMITLOG → GROUP_QUEUE); the ``RANK_*`` constants
below are its machine-readable form, and reprolint's R9 pass verifies
the whole program against them statically.  Two rules fall out of the
table:

* the group-commit **leader** must release GROUP_QUEUE before requesting
  the engine slot for its batched append (40 → 10 would invert the
  order); it re-takes the queue mutex *inside* the slot to drain — 10 →
  40 ascends and is legal;
* engine code may call into the transaction components while holding the
  slot (10 → 20 → 30 ascends), but the components must never call back
  into code that takes the slot.

:class:`OrderedLock` enforces the rule at runtime via a thread-local held-
rank stack and raises :class:`~repro.errors.ConcurrencyError` on a
violation.  The check is a few dict-free list operations per acquisition
— cheap enough to stay on in production; tests rely on it to pin the
ordering rules.  The engine slot itself is managed by the fair scheduler,
which marks slot ownership through :func:`note_acquired` /
:func:`note_released` so slot holders participate in the same ordering
checks without a second mutex.

Observation hooks: :func:`add_lock_listener` registers a listener whose
``acquired``/``released`` methods fire on every ordering event — the
lockset race detector and the interleaving fuzzer
(:mod:`repro.obs.race`) plug in here, so instrumentation costs nothing
when no listener is installed.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Protocol

from ..errors import ConcurrencyError

#: machine-readable rank constants (table: DESIGN.md §15.2)
RANK_ENGINE = 10
RANK_TXN_MANAGER = 20  # reprolint: disable=R12 -- R9 reads the rank table here; tests/unit/test_locks.py
RANK_TXN_COMMITLOG = 30  # reprolint: disable=R12 -- R9 reads the rank table here; tests/unit/test_locks.py
RANK_GROUP_QUEUE = 40

_held = threading.local()


class LockListener(Protocol):
    """Observer of ordering events (race detection, schedule fuzzing)."""

    def acquired(self, rank: int, name: str) -> None: ...

    def released(self, rank: int, name: str) -> None: ...


#: installed listeners; a tuple so iteration needs no lock
_listeners: tuple[LockListener, ...] = ()


def add_lock_listener(listener: LockListener) -> None:
    global _listeners
    _listeners = _listeners + (listener,)


def remove_lock_listener(listener: LockListener) -> None:
    global _listeners
    _listeners = tuple(item for item in _listeners if item is not listener)


def _stack() -> list[tuple[int, str]]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


def note_acquired(rank: int, name: str) -> None:
    """Record that the current thread now holds lock ``name`` at ``rank``.

    Raises :class:`ConcurrencyError` when the acquisition would violate
    the ascending-rank order.
    """
    stack = _stack()
    if stack and rank <= stack[-1][0]:
        held = ", ".join(f"{n}(rank {r})" for r, n in stack)
        ranks = sorted({r for r, _n in stack} | {rank})
        raise ConcurrencyError(
            f"lock order violation in thread "
            f"{threading.current_thread().name!r}: acquiring "
            f"{name}(rank {rank}) while holding [{held}] — ranks "
            f"involved: {ranks}; locks must be taken in ascending rank "
            f"(DESIGN.md §15.2)")
    stack.append((rank, name))
    for listener in _listeners:
        listener.acquired(rank, name)


def note_released(rank: int, name: str) -> None:
    """Record that the current thread released lock ``name``."""
    stack = _stack()
    if not stack or stack[-1] != (rank, name):
        held = ", ".join(f"{n}(rank {r})" for r, n in stack)
        ranks = sorted({r for r, _n in stack} | {rank})
        raise ConcurrencyError(
            f"lock release out of order in thread "
            f"{threading.current_thread().name!r}: releasing "
            f"{name}(rank {rank}) with held stack [{held}] — ranks "
            f"involved: {ranks}; releases must be LIFO")
    stack.pop()
    for listener in _listeners:
        listener.released(rank, name)


def held_ranks() -> list[tuple[int, str]]:  # reprolint: disable=R12 -- tests/unit/test_locks.py inspects the held stack
    """The current thread's held (rank, name) stack — for diagnostics."""
    return list(_stack())


class OrderedLock:
    """A mutex that participates in the global rank order.

    Non-re-entrant by design (the serve layer never needs a re-entrant
    ordered lock; re-entrancy would weaken the release bookkeeping).  Use
    as a context manager::

        queue_lock = OrderedLock("serve.group_queue", RANK_GROUP_QUEUE)
        with queue_lock:
            ...
    """

    __slots__ = ("name", "rank", "_lock")

    def __init__(self, name: str, rank: int) -> None:
        self.name = name
        self.rank = rank
        self._lock = threading.Lock()

    def acquire(self) -> None:
        note_acquired(self.rank, self.name)
        try:
            self._lock.acquire()
        except BaseException:
            note_released(self.rank, self.name)
            raise

    def release(self) -> None:
        self._lock.release()
        note_released(self.rank, self.name)

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"OrderedLock({self.name!r}, rank={self.rank})"
