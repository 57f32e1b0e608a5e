"""LSM SSTables: immutable sorted components with bloom filters."""

from __future__ import annotations

from typing import Iterator, Sequence

from ...buffer.pool import BufferPool
from ...storage.keycodec import encode_key
from ...storage.pagefile import PageFile
from ..filters import BLOOM_FPR, BloomFilter
from ..runs import PersistedRun
from .memtable import entry_bytes
from ...types import Key

#: an SSTable record: (key, seq, value)
SSTableRecord = tuple[Key, int, object]


class SSTable:
    """One immutable sorted component of an LSM level."""

    _next_id = 0

    def __init__(self, file: PageFile, pool: BufferPool,
                 records: Sequence[SSTableRecord]) -> None:
        self.table_id = SSTable._next_id
        SSTable._next_id += 1
        self.run = PersistedRun(
            file, pool, records,
            key_of=lambda r: r[0],
            size_of=lambda r: entry_bytes(r[0], r[2]))
        self.bloom = BloomFilter(max(1, len(records)), BLOOM_FPR)
        for key, _seq, _value in records:
            self.bloom.add(encode_key(key))

    @property
    def record_count(self) -> int:
        return self.run.record_count

    @property
    def size_bytes(self) -> int:
        return self.run.size_bytes

    @property
    def min_key(self) -> Key | None:
        return self.run.min_key

    @property
    def max_key(self) -> Key | None:
        return self.run.max_key

    def may_contain(self, encoded_key: bytes) -> bool:
        return self.bloom.query(encoded_key)

    def get(self, key: Key) -> tuple[int, object] | None:
        """Newest (seq, value) for ``key`` within this component."""
        best: tuple[int, object] | None = None
        for _key, seq, value in self.run.search(key):
            if best is None or seq > best[0]:
                best = (seq, value)
        return best

    def scan(self, lo: Key | None, hi: Key | None, *,
             lo_incl: bool = True,
             hi_incl: bool = True) -> Iterator[SSTableRecord]:
        yield from self.run.scan(lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)

    def iter_all_sequential(self) -> Iterator[SSTableRecord]:
        yield from self.run.iter_all_sequential()

    def free(self) -> None:
        self.run.free()

    def __repr__(self) -> str:
        return (f"SSTable(id={self.table_id}, records={self.record_count}, "
                f"bytes={self.size_bytes})")
