"""Simulated flash storage device.

The device exposes read/write at byte addresses, classifies each request as
sequential or random (by adjacency to the previous request of the same
direction, the way an SSD's stream detection effectively behaves for the
bursty patterns the engine produces), charges the profile's measured latency
to the shared simulated clock, and keeps counters and an optional trace.

The device does **not** hold data — page contents live in
:class:`repro.storage.pagefile.PageFile`; the device is purely the cost and
address-space model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeviceCrashError, DeviceError
from .clock import SimClock
from .profiles import DeviceProfile
from .trace import IOTrace

#: device sector size; torn writes persist a whole number of sectors
SECTOR_BYTES = 512


@dataclass(frozen=True)
class FaultPlan:
    """Injectable crash plan: kill the device at the ``fail_at``-th I/O.

    I/Os are counted from 0 in submission order (reads and writes alike).
    I/Os ``0 .. fail_at-1`` complete normally; I/O ``fail_at`` fails with
    :class:`~repro.errors.DeviceCrashError` and the device stays dead until
    :meth:`SimulatedDevice.reboot`.

    ``mode`` controls how much of the *failing write* persists:

    - ``"clean"``: nothing — the whole request is lost.
    - ``"torn"``: a sector-rounded prefix (``fraction`` of the request,
      rounded down to :data:`SECTOR_BYTES`) — the torn-page case.
    - ``"partial_extent"``: a page-rounded prefix (``fraction`` rounded
      down to ``granularity``, default 8 KiB) — a multi-page extent append
      that persisted only its leading pages.

    A failing *read* never persists anything regardless of mode.
    """

    fail_at: int
    mode: str = "clean"
    fraction: float = 0.5
    granularity: int = 8192

    def __post_init__(self) -> None:
        if self.fail_at < 0:
            raise DeviceError(f"fail_at must be >= 0: {self.fail_at}")
        if self.mode not in ("clean", "torn", "partial_extent"):
            raise DeviceError(f"unknown fault mode: {self.mode!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise DeviceError(f"fraction must be in [0, 1]: {self.fraction}")

    def persisted_prefix(self, nbytes: int, *, write: bool) -> int:
        """Bytes of the failing request that reach stable storage."""
        if not write or self.mode == "clean":
            return 0
        unit = SECTOR_BYTES if self.mode == "torn" else self.granularity
        return min(nbytes, int(nbytes * self.fraction) // unit * unit)


@dataclass
class DeviceStats:
    """Cumulative device counters, split by direction and pattern."""

    seq_reads: int = 0
    rand_reads: int = 0
    seq_writes: int = 0
    rand_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0

    @property
    def reads(self) -> int:
        return self.seq_reads + self.rand_reads

    @property
    def writes(self) -> int:
        return self.seq_writes + self.rand_writes

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(
            self.seq_reads, self.rand_reads, self.seq_writes,
            self.rand_writes, self.bytes_read, self.bytes_written,
            self.busy_time)

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        """Counters accumulated since an ``earlier`` snapshot."""
        return DeviceStats(
            self.seq_reads - earlier.seq_reads,
            self.rand_reads - earlier.rand_reads,
            self.seq_writes - earlier.seq_writes,
            self.rand_writes - earlier.rand_writes,
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written,
            self.busy_time - earlier.busy_time)


@dataclass
class _Allocation:
    offset: int
    nbytes: int


class SimulatedDevice:
    """Cost-model device with a linear allocator for file extents.

    Space is handed out by :meth:`allocate` in monotonically increasing
    addresses, which mirrors a filesystem growing a database file: extents of
    one file land at (mostly) adjacent logical block addresses — the property
    Figure 12c relies on.
    """

    def __init__(self, profile: DeviceProfile, clock: SimClock,
                 trace: IOTrace | None = None) -> None:
        self.profile = profile
        self.clock = clock
        self.trace = trace if trace is not None else IOTrace()
        self.stats = DeviceStats()
        self._next_free = 0
        self._last_read_end = -1
        self._last_write_end = -1
        self._allocations: list[_Allocation] = []
        self._io_index = 0          # completed I/Os, for fault planning
        self._fault_plan: FaultPlan | None = None
        self._crashed = False

    # ---------------------------------------------------------------- faults

    @property
    def io_count(self) -> int:  # reprolint: disable=R12 -- tests/crash/harness.py counts I/Os to place kill points
        """Number of successfully completed I/O requests."""
        return self._io_index

    @property
    def crashed(self) -> bool:
        return self._crashed

    def set_fault_plan(self, plan: FaultPlan | None) -> None:  # reprolint: disable=R12 -- tests/crash/harness.py arms kill points
        """Arm (or clear) a crash-point fault plan."""
        self._fault_plan = plan

    def reboot(self) -> None:
        """Power-cycle a crashed device: it accepts I/O again.

        The fault plan is cleared and the sequential-detection state reset
        (a fresh controller has no notion of the pre-crash access pattern).
        Counters, the trace and allocations survive — they model the
        observer, not the device state.
        """
        self._crashed = False
        self._fault_plan = None
        self._last_read_end = -1
        self._last_write_end = -1

    # ------------------------------------------------------------------ space

    def allocate(self, nbytes: int) -> int:
        """Allocate ``nbytes`` and return the starting byte address."""
        if nbytes <= 0:
            raise DeviceError(f"allocation size must be positive: {nbytes}")
        if self._next_free + nbytes > self.profile.capacity_bytes:
            raise DeviceError(
                f"device full: cannot allocate {nbytes} bytes "
                f"(used {self._next_free} of {self.profile.capacity_bytes})")
        offset = self._next_free
        self._next_free += nbytes
        self._allocations.append(_Allocation(offset, nbytes))
        return offset

    @property
    def allocated_bytes(self) -> int:
        return self._next_free

    # -------------------------------------------------------------------- I/O

    def read(self, offset: int, nbytes: int) -> float:
        """Charge one read request; returns its latency in seconds."""
        return self._io(offset, nbytes, write=False)

    def write(self, offset: int, nbytes: int) -> float:
        """Charge one write request; returns its latency in seconds."""
        return self._io(offset, nbytes, write=True)

    def _io(self, offset: int, nbytes: int, *, write: bool) -> float:
        if offset < 0 or nbytes <= 0:
            raise DeviceError(f"bad I/O request: offset={offset} nbytes={nbytes}")
        if offset + nbytes > self.profile.capacity_bytes:
            raise DeviceError(
                f"I/O beyond device capacity: offset={offset} nbytes={nbytes}")
        if self._crashed:
            raise DeviceCrashError(
                f"device is crashed (reboot required); dropped "
                f"{'write' if write else 'read'} at offset={offset}")
        plan = self._fault_plan
        if plan is not None and self._io_index >= plan.fail_at:
            self._crashed = True
            persisted = plan.persisted_prefix(nbytes, write=write)
            raise DeviceCrashError(
                f"injected crash at I/O #{self._io_index} "
                f"({'write' if write else 'read'} offset={offset} "
                f"nbytes={nbytes}, mode={plan.mode}, persisted={persisted})",
                bytes_persisted=persisted)
        last_end = self._last_write_end if write else self._last_read_end
        sequential = offset == last_end
        latency = self.profile.latency(nbytes, write=write, sequential=sequential)

        if write:
            self._last_write_end = offset + nbytes
            self.stats.bytes_written += nbytes
            if sequential:
                self.stats.seq_writes += 1
            else:
                self.stats.rand_writes += 1
        else:
            self._last_read_end = offset + nbytes
            self.stats.bytes_read += nbytes
            if sequential:
                self.stats.seq_reads += 1
            else:
                self.stats.rand_reads += 1

        self.trace.record(self.clock.now, offset // 512, nbytes,
                          "W" if write else "R")
        self.stats.busy_time += latency
        self.clock.advance(latency)
        self._io_index += 1
        return latency

    def __repr__(self) -> str:
        return (f"SimulatedDevice({self.profile.name!r}, "
                f"allocated={self._next_free}B, "
                f"reads={self.stats.reads}, writes={self.stats.writes})")
