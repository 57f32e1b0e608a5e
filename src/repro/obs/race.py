"""Lockset race detection + interleaving fuzzing (DESIGN.md §17.4).

Two opt-in instrumentation pieces that plug into the serve layer's
ordering hooks (:func:`repro.serve.locks.add_lock_listener`); when
nothing is installed the hot path pays a single empty-tuple check.

**RaceDetector** — the Eraser lockset algorithm.  Each thread's current
lockset is maintained from ``OrderedLock``/``note_acquired`` events; a
*registered shared field* moves through the classic state machine::

    VIRGIN ──first access──▶ EXCLUSIVE(t)
    EXCLUSIVE(t) ──access by u≠t──▶ SHARED (read) / SHARED_MODIFIED (write)
    SHARED ──write──▶ SHARED_MODIFIED

Once a field leaves EXCLUSIVE, its *candidate set* — seeded with the
locks the first thread consistently held, so owner-vs-second-thread
disagreement counts too — is intersected with the accessing thread's
lockset on every access; an empty candidate set
in SHARED_MODIFIED means no single lock consistently guarded the field
— a data race, reported even if the schedule never actually interleaved
the conflicting accesses.  That schedule-insensitivity is the point:
one sequential test run indicts the locking discipline, not the luck of
the interleaving.

**SchedulePerturber** — a seeded pre-emption fuzzer.  At every lock
boundary it consults its own ``random.Random(seed)`` and, with the
configured probability, parks the thread briefly (an un-set
``threading.Event`` wait — no banned ``time.sleep``), shaking threads
out of the convoy order the test harness would otherwise settle into.
The ``--fuzz-interleavings`` pytest option installs one over the
``-m concurrency`` suites; the seed makes a failing schedule
re-runnable.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from ..errors import ConcurrencyError

#: field states (Eraser, SOSP'97 §3)
VIRGIN = "virgin"
EXCLUSIVE = "exclusive"
SHARED = "shared"
SHARED_MODIFIED = "shared-modified"


@dataclass(frozen=True)
class RaceReport:
    """One detected race: the access that emptied the candidate set."""

    field: str            #: registered field name
    access: str           #: ``"read"`` or ``"write"``
    thread: str           #: thread name of the emptying access
    first_thread: str     #: thread that first touched the field
    lockset: tuple[str, ...]   #: locks held at the emptying access

    def format(self) -> str:
        held = ", ".join(self.lockset) or "no locks"
        return (f"data race on {self.field!r}: {self.access} by thread "
                f"{self.thread!r} holding [{held}] — no lock "
                f"consistently guards the field (first touched by "
                f"{self.first_thread!r})")


class _FieldState:
    __slots__ = ("state", "owner", "owner_name", "owner_lockset",
                 "candidates", "reported")

    def __init__(self) -> None:
        self.state = VIRGIN
        self.owner: int | None = None
        self.owner_name = ""
        #: locks the owner consistently held while EXCLUSIVE — seeds the
        #: candidate set, so owner-vs-second-thread lock disagreement counts
        self.owner_lockset: frozenset[str] = frozenset()
        self.candidates: frozenset[str] | None = None
        self.reported = False


class RaceDetector:
    """Eraser-style lockset checker over registered shared fields.

    Install with :meth:`install` (wires into the lock listener hook),
    register the fields under test, and route their accesses through
    :meth:`read`/:meth:`write`.  :meth:`races` returns every violation
    seen; :meth:`check` raises on the first.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        # detector bookkeeping only; taken for a few dict operations
        # reprolint: lock-rank=LEAF
        self._mutex = threading.Lock()
        self._fields: dict[str, _FieldState] = {}
        self._races: list[RaceReport] = []
        self._installed = False

    # ------------------------------------------------------------- lifecycle

    def install(self) -> "RaceDetector":
        from ..serve.locks import add_lock_listener
        if not self._installed:
            add_lock_listener(self)
            self._installed = True
        return self

    def uninstall(self) -> None:
        from ..serve.locks import remove_lock_listener
        if self._installed:
            remove_lock_listener(self)
            self._installed = False

    def __enter__(self) -> "RaceDetector":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ----------------------------------------------------- listener protocol

    def acquired(self, rank: int, name: str) -> None:
        self._lockset().add(name)

    def released(self, rank: int, name: str) -> None:
        self._lockset().discard(name)

    def _lockset(self) -> set[str]:
        lockset = getattr(self._local, "lockset", None)
        if lockset is None:
            lockset = set()
            self._local.lockset = lockset
        return lockset

    # ------------------------------------------------------------ field API

    def register_field(self, field: str) -> None:  # reprolint: disable=R12 -- tests/unit/test_race.py declares the fields it tracks
        with self._mutex:
            self._fields.setdefault(field, _FieldState())

    def read(self, field: str) -> None:
        self._access(field, "read")

    def write(self, field: str) -> None:
        self._access(field, "write")

    def _access(self, field: str, access: str) -> None:
        me = threading.get_ident()
        lockset = frozenset(self._lockset())
        with self._mutex:
            state = self._fields.get(field)
            if state is None:
                raise ConcurrencyError(
                    f"race detector: field {field!r} was never "
                    f"registered (register_field first)")
            self._step(field, state, access, me, lockset)

    def _step(self, field: str, state: _FieldState, access: str,
              me: int, lockset: frozenset[str]) -> None:
        if state.reported:
            return                      # report each field once
        if state.state == VIRGIN:
            state.state = EXCLUSIVE
            state.owner = me
            state.owner_name = threading.current_thread().name
            state.owner_lockset = lockset
            return
        if state.state == EXCLUSIVE:
            if state.owner == me:
                state.owner_lockset &= lockset
                return
            state.state = (SHARED_MODIFIED if access == "write"
                           else SHARED)
            state.candidates = state.owner_lockset
        elif access == "write":
            state.state = SHARED_MODIFIED
        assert state.candidates is not None
        state.candidates = state.candidates & lockset
        if state.state == SHARED_MODIFIED and not state.candidates:
            state.reported = True
            self._races.append(RaceReport(
                field=field, access=access,
                thread=threading.current_thread().name,
                first_thread=state.owner_name,
                lockset=tuple(sorted(lockset))))

    # -------------------------------------------------------------- results

    def races(self) -> list[RaceReport]:
        with self._mutex:
            return list(self._races)

    def check(self) -> None:
        """Raise :class:`ConcurrencyError` if any race was detected."""
        found = self.races()
        if found:
            raise ConcurrencyError(
                "; ".join(report.format() for report in found))


class SchedulePerturber:
    """Seeded pre-emption at lock boundaries (interleaving fuzzer).

    Deterministically seeded: the *decision stream* (yield or not, and
    for how long) replays exactly for a given seed, so a schedule that
    surfaced a bug is re-runnable; the OS scheduler still owns the
    final interleaving.
    """

    def __init__(self, seed: int = 0, *, yield_probability: float = 0.25,
                 max_pause_s: float = 0.002) -> None:
        self.seed = seed
        self.yield_probability = yield_probability
        self.max_pause_s = max_pause_s
        self._rng = random.Random(seed)
        # guards the (non-thread-safe) RNG only
        # reprolint: lock-rank=LEAF
        self._mutex = threading.Lock()
        self._installed = False
        self.yields = 0
        self.boundaries = 0

    def install(self) -> "SchedulePerturber":
        from ..serve.locks import add_lock_listener
        if not self._installed:
            add_lock_listener(self)
            self._installed = True
        return self

    def uninstall(self) -> None:
        from ..serve.locks import remove_lock_listener
        if self._installed:
            remove_lock_listener(self)
            self._installed = False

    def __enter__(self) -> "SchedulePerturber":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def acquired(self, rank: int, name: str) -> None:
        self._maybe_preempt()

    def released(self, rank: int, name: str) -> None:
        self._maybe_preempt()

    def _maybe_preempt(self) -> None:
        with self._mutex:
            self.boundaries += 1
            if self._rng.random() >= self.yield_probability:
                return
            pause = self._rng.random() * self.max_pause_s
            self.yields += 1
        # an Event nobody sets: a plain bounded park for this thread
        threading.Event().wait(pause)
