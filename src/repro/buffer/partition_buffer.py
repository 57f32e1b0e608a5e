"""MV-PBT / PBT partition buffer (paper §4.5).

All partitioned indices of a database place their mutable partition ``P_N``
in one shared :class:`PartitionBuffer`.  The buffer's policy differs from
LRU on purpose:

* partitions are evicted **as a whole** (never page-wise) so that the write
  pattern stays sequential;
* when the size threshold is exceeded, the **largest** ``P_N`` across all
  registered indices is evicted, so update-intensive indices don't starve
  the others and partition counts stay balanced.
"""

from __future__ import annotations

from typing import Protocol

from ..errors import ConfigError


class PartitionedIndexProtocol(Protocol):
    """What the partition buffer needs from a partitioned index."""

    name: str

    def memory_partition_bytes(self) -> int:
        """Accounted size of the index's current in-memory partition."""

    def evict_partition(self) -> None:
        """Make the current partition immutable and append it to storage."""


class PartitionBuffer:
    """Shared budget for the in-memory partitions of all partitioned indices."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(
                f"partition buffer capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._indices: list[PartitionedIndexProtocol] = []
        self.evictions = 0

    def register(self, index: PartitionedIndexProtocol) -> None:
        if index not in self._indices:
            self._indices.append(index)

    @property
    def used_bytes(self) -> int:
        return sum(ix.memory_partition_bytes() for ix in self._indices)

    def maybe_evict(self) -> int:
        """Evict largest partitions until under budget; returns evictions done.

        Called by indices after every insertion into their ``P_N``.  An index
        whose partition is empty is never chosen.
        """
        done = 0
        while self.used_bytes > self.capacity_bytes:
            victim = max(self._indices,
                         key=lambda ix: ix.memory_partition_bytes(),
                         default=None)
            if victim is None or victim.memory_partition_bytes() == 0:
                break
            victim.evict_partition()
            self.evictions += 1
            done += 1
        return done

    def __repr__(self) -> str:
        return (f"PartitionBuffer(used={self.used_bytes}/"
                f"{self.capacity_bytes}B, indices={len(self._indices)})")
