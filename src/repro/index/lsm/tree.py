"""Leveled LSM-Tree.

Structure (WiredTiger/RocksDB-style leveling):

* a sorted **memtable** absorbs all writes;
* a full memtable is flushed as an **L0** SSTable (sequential extent writes);
  L0 components overlap and are searched newest-first;
* when L0 exceeds its component limit, all L0 components are merged with
  level 1; a level ``i >= 1`` holds one non-overlapping sorted component and
  is merged into level ``i+1`` when it outgrows ``base_bytes * ratio^i``.

Compactions stream inputs with sequential reads and write outputs
sequentially; the rewrite traffic is the LSM's write amplification, which
the tree tracks (the paper argues MV-PBT writes index records exactly once,
i.e. has much lower write amplification — §1, §5 "Comparison to LSM-Trees").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

from ...buffer.pool import BufferPool
from ...sim.clock import SimClock
from ...storage.keycodec import encode_key
from ...storage.pagefile import PageFile
from .memtable import TOMBSTONE, MemTable, entry_bytes
from .sstable import SSTable, SSTableRecord
from ...types import Key


@dataclass
class LSMStats:
    """Operation and compaction counters."""

    puts: int = 0
    deletes: int = 0
    gets: int = 0
    scans: int = 0
    flushes: int = 0
    compactions: int = 0
    user_bytes: int = 0
    rewritten_bytes: int = 0
    components_searched: int = 0
    levels_sizes: list[int] = field(default_factory=list)

    @property
    def write_amplification(self) -> float:
        if self.user_bytes == 0:
            return 0.0
        return (self.user_bytes + self.rewritten_bytes) / self.user_bytes


class LSMTree:
    """Key-value LSM tree with leveled compaction."""

    def __init__(self, name: str, file: PageFile, pool: BufferPool, *,
                 memtable_bytes: int = 64 * 8192,
                 l0_component_limit: int = 4,
                 level_base_bytes: int = 256 * 8192,
                 size_ratio: int = 10,
                 clock: SimClock | None = None) -> None:
        self.name = name
        self.file = file
        self.pool = pool
        self.memtable_bytes = memtable_bytes
        self.l0_component_limit = l0_component_limit
        self.level_base_bytes = level_base_bytes
        self.size_ratio = size_ratio
        self.stats = LSMStats()

        self._memtable = MemTable()
        self._l0: list[SSTable] = []          # newest first
        self._levels: list[SSTable | None] = []  # level 1.. (index 0 = L1)
        self._next_seq = 0
        self._clock = clock or SimClock()

    def _charge(self, comparisons: int, hashes: int = 0) -> None:
        """Charge in-memory CPU work to the simulated clock."""
        clock = self._clock
        cost = clock.cost
        clock.advance(comparisons * cost.compare + hashes * cost.hash_op)

    # ------------------------------------------------------------------ DML

    def put(self, key: Key, value: object) -> None:
        key = tuple(key)
        self._charge(comparisons=20)
        self._memtable.put(key, self._next_seq, value)
        self._next_seq += 1
        self.stats.puts += 1
        self.stats.user_bytes += entry_bytes(key, value)
        if self._memtable.bytes_used >= self.memtable_bytes:
            self.flush_memtable()

    def delete(self, key: Key) -> None:
        key = tuple(key)
        self._charge(comparisons=20)
        self._memtable.put(key, self._next_seq, TOMBSTONE)
        self._next_seq += 1
        self.stats.deletes += 1
        self.stats.user_bytes += entry_bytes(key, TOMBSTONE)
        if self._memtable.bytes_used >= self.memtable_bytes:
            self.flush_memtable()

    # ----------------------------------------------------------------- reads

    def get(self, key: Key) -> object | None:
        key = tuple(key)
        self.stats.gets += 1
        self._charge(comparisons=20)
        hit = self._memtable.get(key)
        if hit is not None:
            _seq, value = hit
            return None if value is TOMBSTONE else value
        encoded = encode_key(key)
        for sstable in self._l0:
            self.stats.components_searched += 1
            self._charge(comparisons=2, hashes=sstable.bloom.nhashes)
            if not sstable.may_contain(encoded):
                continue
            found = sstable.get(key)
            sstable.bloom.report_pass_outcome(found is not None)
            if found is not None:
                _seq, value = found
                return None if value is TOMBSTONE else value
        for sstable in self._levels:
            if sstable is None:
                continue
            self.stats.components_searched += 1
            self._charge(comparisons=2, hashes=sstable.bloom.nhashes)
            if not sstable.may_contain(encoded):
                continue
            found = sstable.get(key)
            sstable.bloom.report_pass_outcome(found is not None)
            if found is not None:
                _seq, value = found
                return None if value is TOMBSTONE else value
        return None

    def scan(self, start_key: Key | None,
             count: int) -> list[tuple[Key, object]]:
        """Up to ``count`` live (key, value) pairs from ``start_key`` on."""
        self.stats.scans += 1
        sources: list[Iterator[tuple[Key, int, object]]] = [
            self._memtable.scan_from(start_key)]
        for sstable in self._l0:
            sources.append(sstable.scan(start_key, None))
        for sstable in self._levels:
            if sstable is not None:
                sources.append(sstable.scan(start_key, None))
        # merge by (key, -seq): the newest entry of each key comes first
        merged = heapq.merge(
            *[((key, -seq, value) for key, seq, value in src)
              for src in sources])
        results: list[tuple[Key, object]] = []
        last_key: Key | None = None
        pulled = 0
        for key, _negseq, value in merged:
            pulled += 1
            if key == last_key:
                continue  # shadowed by a newer entry
            last_key = key
            if value is TOMBSTONE:
                continue
            results.append((key, value))
            if len(results) >= count:
                break
        self._charge(comparisons=pulled * 2)
        return results

    # ------------------------------------------------------------ components

    def flush_memtable(self) -> None:
        """Persist the memtable as a new L0 component."""
        if len(self._memtable) == 0:
            return
        records: list[SSTableRecord] = list(self._memtable.items())
        sstable = SSTable(self.file, self.pool, records)
        self._l0.insert(0, sstable)
        self._memtable = MemTable()
        self.stats.flushes += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if len(self._l0) > self.l0_component_limit:
            self._compact_l0()
        level = 0  # index into self._levels (level 1)
        while level < len(self._levels):
            sstable = self._levels[level]
            limit = self.level_base_bytes * (self.size_ratio ** level)
            if sstable is not None and sstable.size_bytes > limit:
                self._compact_level(level)
            level += 1

    def _compact_l0(self) -> None:
        inputs: list[SSTable] = list(self._l0)
        if self._levels and self._levels[0] is not None:
            inputs.append(self._levels[0])
        merged = self._merge(inputs,
                             drop_tombstones=self._is_bottom(target_level=0))
        new_sstable = (SSTable(self.file, self.pool, merged)
                       if merged else None)
        for sstable in inputs:
            self.stats.rewritten_bytes += sstable.size_bytes
            sstable.free()
        self._l0 = []
        if not self._levels:
            self._levels.append(new_sstable)
        else:
            self._levels[0] = new_sstable
        self.stats.compactions += 1

    def _compact_level(self, level: int) -> None:
        inputs: list[SSTable] = []
        upper = self._levels[level]
        if upper is not None:
            inputs.append(upper)
        if level + 1 < len(self._levels) and self._levels[level + 1] is not None:
            inputs.append(self._levels[level + 1])  # type: ignore[arg-type]
        merged = self._merge(inputs,
                             drop_tombstones=self._is_bottom(level + 1))
        new_sstable = (SSTable(self.file, self.pool, merged)
                       if merged else None)
        for sstable in inputs:
            self.stats.rewritten_bytes += sstable.size_bytes
            sstable.free()
        self._levels[level] = None
        if level + 1 < len(self._levels):
            self._levels[level + 1] = new_sstable
        else:
            self._levels.append(new_sstable)
        self.stats.compactions += 1

    def _is_bottom(self, target_level: int) -> bool:
        """Is ``target_level`` (index into _levels) the lowest non-empty one?"""
        for below in range(target_level + 1, len(self._levels)):
            if self._levels[below] is not None:
                return False
        return True

    def _merge(self, inputs: list[SSTable],
               drop_tombstones: bool) -> list[SSTableRecord]:
        """K-way merge, newest entry per key wins; sequential input reads."""
        streams = [((key, -seq, value)
                    for key, seq, value in sstable.iter_all_sequential())
                   for sstable in inputs]
        merged: list[SSTableRecord] = []
        last_key: Key | None = None
        for key, negseq, value in heapq.merge(*streams):
            if key == last_key:
                continue
            last_key = key
            if drop_tombstones and value is TOMBSTONE:
                continue
            merged.append((key, -negseq, value))
        return merged

    # ------------------------------------------------------------ inspection

    @property
    def component_count(self) -> int:
        return (len(self._l0)
                + sum(1 for s in self._levels if s is not None)
                + (1 if len(self._memtable) else 0))

    def __repr__(self) -> str:
        return (f"LSMTree({self.name!r}, components={self.component_count}, "
                f"wa={self.stats.write_amplification:.2f})")
