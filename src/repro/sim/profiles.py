"""Device cost profiles.

:data:`INTEL_DC_P3600` is transcribed from Figure 8 of the paper ("I/O
Characteristics of Intel DC P3600 SSD"): IOPS for every combination of
{sequential, random} x {read, write} x {8 KiB, 64 KiB}.  Latency for a request
is interpolated per-byte between the two measured block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

KIB = 1024
SMALL_BLOCK = 8 * KIB
LARGE_BLOCK = 64 * KIB


@dataclass(frozen=True)
class OpCost:
    """Measured IOPS of one (pattern, direction) pair at the two block sizes."""

    iops_8k: float
    iops_64k: float

    def latency(self, nbytes: int) -> float:
        """Seconds for one request of ``nbytes``.

        Requests at or below 8 KiB cost one small-block operation; requests at
        or above 64 KiB are charged per 64 KiB chunk; sizes in between are
        linearly interpolated between the two measured points, which matches
        how mixed-size requests behave on the measured device closely enough
        for the paper's experiments (everything the engine issues is either an
        8 KiB page or a whole 64 KiB extent).
        """
        if nbytes <= 0:
            raise ConfigError(f"I/O size must be positive: {nbytes}")
        lat_small = 1.0 / self.iops_8k
        lat_large = 1.0 / self.iops_64k
        if nbytes <= SMALL_BLOCK:
            return lat_small
        if nbytes >= LARGE_BLOCK:
            whole, rest = divmod(nbytes, LARGE_BLOCK)
            tail = 0.0
            if rest:
                tail = self._interp(rest, lat_small, lat_large)
            return whole * lat_large + tail
        return self._interp(nbytes, lat_small, lat_large)

    @staticmethod
    def _interp(nbytes: int, lat_small: float, lat_large: float) -> float:
        frac = (nbytes - SMALL_BLOCK) / (LARGE_BLOCK - SMALL_BLOCK)
        return lat_small + frac * (lat_large - lat_small)


@dataclass(frozen=True)
class DeviceProfile:
    """Full cost table of a storage device."""

    name: str
    capacity_bytes: int
    seq_read: OpCost
    rand_read: OpCost
    seq_write: OpCost
    rand_write: OpCost

    def cost(self, *, write: bool, sequential: bool) -> OpCost:
        if write:
            return self.seq_write if sequential else self.rand_write
        return self.seq_read if sequential else self.rand_read

    def latency(self, nbytes: int, *, write: bool, sequential: bool) -> float:
        return self.cost(write=write, sequential=sequential).latency(nbytes)


#: Figure 8 of the paper, Intel DC P3600 400 GB.
#:
#: ============  =======  ========  ========  ========
#: pattern       read 8K  read 64K  write 8K  write 64K
#: ============  =======  ========  ========  ========
#: sequential    122382   24180     11104     1343
#: random        112479   23631     7185      1184
#: ============  =======  ========  ========  ========
INTEL_DC_P3600 = DeviceProfile(
    name="Intel DC P3600 400GB",
    capacity_bytes=400 * 1000 ** 3,
    seq_read=OpCost(iops_8k=122382.0, iops_64k=24180.0),
    rand_read=OpCost(iops_8k=112479.0, iops_64k=23631.0),
    seq_write=OpCost(iops_8k=11104.0, iops_64k=1343.0),
    rand_write=OpCost(iops_8k=7185.0, iops_64k=1184.0),
)

#: A uniform-latency profile useful in unit tests (1 us per request).
UNIT_TEST_PROFILE = DeviceProfile(  # reprolint: disable=R12 -- the unit tests' uniform-latency device (tests/conftest.py)
    name="unit-test device",
    capacity_bytes=1 * 1000 ** 3,
    seq_read=OpCost(iops_8k=1e6, iops_64k=1e6),
    rand_read=OpCost(iops_8k=1e6, iops_64k=1e6),
    seq_write=OpCost(iops_8k=1e6, iops_64k=1e6),
    rand_write=OpCost(iops_8k=1e6, iops_64k=1e6),
)
