"""Partitioned B-Tree (Graefe; paper §2, §4 baseline "PBT").

A PBT keeps one mutable in-memory partition ``P_N`` where *all* insertions
go; when the shared partition buffer decides, ``P_N`` is appended to storage
as an immutable partition (a :class:`~repro.index.runs.PersistedRun`) with a
fully dense fill and a bloom filter.

The PBT here is **version-oblivious** (the paper's comparison point): every
tuple-version gets a plain (key, ref) entry, lookups return all candidate
references across all partitions, and the executor must do the base-table
visibility check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterator

from ..buffer.partition_buffer import PartitionBuffer
from ..buffer.pool import BufferPool
from ..sim.clock import SimClock
from ..storage.keycodec import encode_key, encoded_size
from ..storage.pagefile import PageFile
from .base import (ENTRY_OVERHEAD_BYTES, REF_BYTES, Index, IndexStats, Ref,
                   key_in_range)
from .filters import BLOOM_FPR, BloomFilter
from .runs import PersistedRun
from ..types import Key


def _entry_size(key: Key) -> int:
    return encoded_size(key) + REF_BYTES + ENTRY_OVERHEAD_BYTES


@dataclass
class PBTPartition:
    """One immutable persisted PBT partition."""

    number: int
    run: PersistedRun[tuple[Key, int, Ref]]
    bloom: BloomFilter | None


class PartitionedBTree(Index):
    """Version-oblivious partitioned B-tree."""

    def __init__(self, name: str, file: PageFile, pool: BufferPool,
                 partition_buffer: PartitionBuffer, *,
                 use_bloom: bool = True,
                 clock: SimClock | None = None) -> None:
        self.name = name
        self._clock = clock or SimClock()
        self.file = file
        self.pool = pool
        self.partition_buffer = partition_buffer
        self.use_bloom = use_bloom
        self.stats = IndexStats()

        self._mem_entries: list[tuple[Key, int, Ref]] = []  # (key, seq, ref)
        self._mem_bytes = 0
        self._mem_number = 0
        self._next_seq = 0
        self._partitions: list[PBTPartition] = []  # oldest .. newest
        self.partition_buffer.register(self)

    # ------------------------------------------------------- partition buffer

    def memory_partition_bytes(self) -> int:
        return self._mem_bytes

    def evict_partition(self) -> None:
        """Append ``P_N`` to storage as an immutable, dense partition."""
        if not self._mem_entries:
            return
        records = list(self._mem_entries)
        bloom: BloomFilter | None = None
        if self.use_bloom:
            bloom = BloomFilter(len(records), BLOOM_FPR)
            for key, _seq, _ref in records:
                bloom.add(encode_key(key))
        run = PersistedRun(
            self.file, self.pool, records,
            key_of=lambda r: r[0],
            size_of=lambda r: _entry_size(r[0]))
        self._partitions.append(
            PBTPartition(number=self._mem_number, run=run, bloom=bloom))
        self._mem_entries = []
        self._mem_bytes = 0
        self._mem_number += 1

    # ------------------------------------------------------------- interface

    def _charge(self, comparisons: int) -> None:
        clock = self._clock
        clock.advance(comparisons * clock.cost.compare)

    def insert_entry(self, key: Key, ref: Ref) -> None:
        key = tuple(key)
        self._charge(20)
        insort(self._mem_entries, (key, self._next_seq, ref))
        self._next_seq += 1
        self._mem_bytes += _entry_size(key)
        self.stats.inserts += 1
        self.partition_buffer.maybe_evict()

    def remove_entry(self, key: Key, ref: Ref) -> bool:
        """Index-level GC: only entries still in ``P_N`` can be removed;
        persisted partitions are immutable (their dead entries die at merge
        or are filtered by the executor's visibility check)."""
        key = tuple(key)
        lo = bisect_left(self._mem_entries, (key,))
        for idx in range(lo, len(self._mem_entries)):
            entry_key, _seq, entry_ref = self._mem_entries[idx]
            if entry_key != key:
                break
            if entry_ref == ref:
                del self._mem_entries[idx]
                self._mem_bytes -= _entry_size(key)
                self.stats.removes += 1
                return True
        return False

    def search(self, key: Key) -> list[Ref]:
        """All candidate refs for ``key`` across every partition."""
        key = tuple(key)
        self.stats.searches += 1
        self._charge(20)
        refs: list[Ref] = []
        refs.extend(ref for _k, _s, ref in self._mem_slice(key))
        for partition in reversed(self._partitions):
            if partition.bloom is not None:
                if not partition.bloom.query(encode_key(key)):
                    continue
                found = False
                for _k, _s, ref in partition.run.search(key):
                    refs.append(ref)
                    found = True
                partition.bloom.report_pass_outcome(found)
            else:
                refs.extend(ref for _k, _s, ref in partition.run.search(key))
        self.stats.entries_returned += len(refs)
        return refs

    def range_scan(self, lo: Key | None, hi: Key | None,
                   *, lo_incl: bool = True,
                   hi_incl: bool = True) -> Iterator[tuple[Key, Ref]]:
        """Candidates in key order (merged across partitions)."""
        self.stats.scans += 1
        results: list[tuple[Key, Ref]] = []
        for key, _seq, ref in self._mem_entries:
            if key_in_range(key, lo, hi, lo_incl, hi_incl):
                results.append((key, ref))
        for partition in self._partitions:
            if not partition.run.overlaps(lo, hi):
                continue
            for key, _seq, ref in partition.run.scan(
                    lo, hi, lo_incl=lo_incl, hi_incl=hi_incl):
                results.append((key, ref))
        results.sort(key=lambda item: item[0])
        self._charge(20 + 2 * len(results))
        self.stats.entries_returned += len(results)
        return iter(results)

    def entry_count(self) -> int:
        return (len(self._mem_entries)
                + sum(p.run.record_count for p in self._partitions))

    # ------------------------------------------------------------ inspection

    @property
    def partition_count(self) -> int:
        """Number of partitions (persisted + the in-memory ``P_N``)."""
        return len(self._partitions) + 1

    @property
    def persisted_partitions(self) -> list[PBTPartition]:
        return list(self._partitions)

    def _mem_slice(self, key: Key) -> list[tuple[Key, int, Ref]]:
        lo = bisect_left(self._mem_entries, (key,))
        hi = bisect_right(self._mem_entries, (key, self._next_seq + 1))
        return self._mem_entries[lo:hi]

    def __repr__(self) -> str:
        return (f"PartitionedBTree({self.name!r}, "
                f"partitions={self.partition_count}, "
                f"mem_bytes={self._mem_bytes})")
