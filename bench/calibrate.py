"""How fast does this box run Python right now?

The benchmark box is a shared two-core VM.  Process CPU time per op of
unchanged code swings by +-20% between runs there, with neighbours'
cache and memory traffic — far more than the bounds a CPU metric is
gated on.  A fixed pointer-chasing kernel, sampled before and after
every timed chunk, swings with it: dividing a chunk's CPU time by the
kernel's CPU time around it cut the run-to-run spread of
``cpu_us_per_op`` from 0.22 to 0.05 (IQR / median over ten runs of
``ycsb_a_cold``).  CPU times are therefore reported *calibrated*:

    calibrated = measured * REFERENCE_NS / kernel time around the chunk

i.e. in microseconds of a box on which the kernel takes ``REFERENCE_NS``.
The kernel is dictionary lookups of tuple-of-string keys over a working
set well beyond the L2 cache — the access pattern of the program itself.
It never calls into ``repro``, so no code change can move it.
"""

from __future__ import annotations

import random
import resource
from time import process_time_ns

#: the kernel's CPU time on the box, and at the time, the benchmark was
#: defined (quiet-moment value); only fixes the unit, never the comparison
REFERENCE_NS = 8_000_000
_ENTRIES = 100_000
_LOOKUPS = 8_000


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Calibrator:
    """Build once per process — first thing, so :attr:`rss_kb` is exactly
    what the working set added to the high-water mark — then take ONE
    :meth:`sample` after every timed piece of work.

    One, because the sample has to start with cold caches, as the
    program's work does: the engine work before it has pushed the table
    out.  A second sample right behind the first runs warm, ~2x faster,
    and no longer swings with the box (measured: normalising by warm
    samples is worse than not normalising at all)."""

    def __init__(self) -> None:
        before = maxrss_kb()
        rng = random.Random(20200330)
        self._table = {(f"user{i:010d}",): (i, f"value{i:016d}")
                       for i in range(_ENTRIES)}
        self._keys = [(f"user{rng.randrange(_ENTRIES):010d}",)
                      for _ in range(_LOOKUPS)]
        self.samples: list[int] = []
        self.sample()           # touch everything once before measuring
        self.samples.clear()
        self.rss_kb = maxrss_kb() - before

    def sample(self) -> int:
        """CPU nanoseconds one kernel run takes right now."""
        get = self._table.get
        total = 0
        t0 = process_time_ns()
        for key in self._keys:
            total += get(key)[0]    # type: ignore[index]
        elapsed = process_time_ns() - t0
        self.samples.append(elapsed)
        return elapsed


def calibrated(cpu_ns: float, kernel_ns: float) -> float:
    """``cpu_ns`` as it would read on the reference box."""
    return cpu_ns * REFERENCE_NS / kernel_ns
