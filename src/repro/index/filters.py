"""Bloom filters and prefix bloom filters for immutable partitions (§4.7).

Each persisted MV-PBT / PBT partition and each LSM SSTable carries a bloom
filter over its (encoded) search keys so point lookups can skip partitions.
An MV-PBT partition over composite keys also carries a *prefix* bloom
filter over all key columns but the last, so range scans with a fixed
leading prefix can skip too (DESIGN.md §9.3).

Hashing uses double hashing over two independent CRC-based digests — stable
across processes (unlike Python's ``hash``), cheap, and adequate for the
filter sizes involved.  The digest pair of a key is exposed separately
(:func:`digest` / :meth:`BloomFilter.add_digest`) so streaming partition
builds can hash each key once while records flow past and materialise the
filter — bit-identical to sequential ``add`` calls — only when the final
record count is known.  Effectiveness counters back the paper's Figure 13.

A durable MV-PBT partition writes its filters and zone map once, as the
*filter block* trailing its leaves (:func:`filter_block_pages` /
:func:`decode_filter_block`, DESIGN.md §9.3).
"""

from __future__ import annotations

import math
import struct
import zlib
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from ..errors import ConfigError, FilterBlockError, KeyCodecError
from ..storage.keycodec import encode_key
from ..types import Key


def digest(data: bytes) -> tuple[int, int]:
    """The double-hashing digest pair of a key's encoded bytes.

    Streaming partition builds call this once per record while the stream
    flows past and replay the pairs into :meth:`BloomFilter.add_digest` once
    the final record count (hence the filter size) is known.
    """
    return (zlib.crc32(data) & 0xFFFFFFFF,
            (zlib.adler32(data) & 0xFFFFFFFF) | 1)


@dataclass
class FilterStats:
    """Outcome counters of one filter (paper Figure 13's categories)."""

    queries: int = 0
    negatives: int = 0          #: filter said "absent" (partition skipped)
    positives: int = 0          #: filter said "present" and the key was there
    false_positives: int = 0    #: filter said "present" but the scan found nothing

    def record_pass(self, found: bool) -> None:
        if found:
            self.positives += 1
        else:
            self.false_positives += 1

    @property
    def negative_rate(self) -> float:
        return self.negatives / self.queries if self.queries else 0.0

    @property
    def false_positive_rate(self) -> float:
        return self.false_positives / self.queries if self.queries else 0.0


#: target false-positive rate of every bloom filter a partition or an LSM
#: SSTable is built with
BLOOM_FPR = 0.02


class BloomFilter:
    """Classic bloom filter over byte strings."""

    def __init__(self, expected_items: int, fpr: float) -> None:
        if expected_items < 1:
            expected_items = 1
        if not 0.0 < fpr < 1.0:
            raise ConfigError(f"fpr must be in (0, 1): {fpr}")
        ln2 = math.log(2.0)
        self.nbits = max(8, int(math.ceil(
            -expected_items * math.log(fpr) / (ln2 * ln2))))
        self.nhashes = max(1, int(round((self.nbits / expected_items) * ln2)))
        self._bits = bytearray((self.nbits + 7) // 8)
        self.items_added = 0
        self.stats = FilterStats()

    # ------------------------------------------------------------------ core
    # The probe loops are inlined (no generator) — filter adds/probes run
    # once per record on the eviction/merge and point-lookup hot paths, and
    # the per-probe generator frame dominated their cost.

    def add(self, data: bytes) -> None:
        self.add_digest(zlib.crc32(data) & 0xFFFFFFFF,
                        (zlib.adler32(data) & 0xFFFFFFFF) | 1)

    def add_digest(self, h1: int, h2: int) -> None:
        """Add a key by its precomputed :func:`digest` pair."""
        bits = self._bits
        nbits = self.nbits
        for i in range(self.nhashes):
            pos = (h1 + i * h2) % nbits
            bits[pos >> 3] |= 1 << (pos & 7)
        self.items_added += 1

    def may_contain(self, data: bytes) -> bool:
        """Probe without touching effectiveness counters."""
        h1 = zlib.crc32(data) & 0xFFFFFFFF
        h2 = (zlib.adler32(data) & 0xFFFFFFFF) | 1  # odd, never zero
        bits = self._bits
        nbits = self.nbits
        for i in range(self.nhashes):
            pos = (h1 + i * h2) % nbits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def query(self, data: bytes) -> bool:
        """Probe and count; call :meth:`report_pass_outcome` after the scan."""
        self.stats.queries += 1
        if self.may_contain(data):
            return True
        self.stats.negatives += 1
        return False

    def report_pass_outcome(self, found: bool) -> None:
        """Report whether a passed probe's partition scan actually matched."""
        self.stats.record_pass(found)

    # ------------------------------------------------------------ inspection

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    # --------------------------------------------------------- serialisation

    def to_state(self) -> tuple[int, int, int, bytes]:
        """Durable state: ``(nbits, nhashes, items_added, bit array)``.

        Effectiveness counters are deliberately excluded — they describe the
        observer (one process run), not the filter.
        """
        return (self.nbits, self.nhashes, self.items_added, bytes(self._bits))

    @classmethod
    def from_state(cls, nbits: int, nhashes: int, items_added: int,
                   bits: bytes) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_state` output (manifest load).

        Bypasses the sizing constructor: the persisted geometry is
        authoritative, fresh stats start at zero.
        """
        if nbits < 1 or nhashes < 1 or len(bits) != (nbits + 7) // 8:
            raise ConfigError(
                f"inconsistent bloom state: nbits={nbits} nhashes={nhashes} "
                f"len(bits)={len(bits)}")
        obj = object.__new__(cls)
        obj.nbits = nbits
        obj.nhashes = nhashes
        obj._bits = bytearray(bits)
        obj.items_added = items_added
        obj.stats = FilterStats()
        return obj

    def __repr__(self) -> str:
        return (f"BloomFilter(bits={self.nbits}, k={self.nhashes}, "
                f"items={self.items_added})")


#: target false-positive rate of every MV-PBT partition's prefix filter
PREFIX_BLOOM_FPR = 0.10


class PrefixBloomFilter:
    """Bloom filter over the encoded leading ``prefix_columns`` of each key.

    Gates range scans of the form "leading columns fixed, trailing columns
    ranged" (the common TPC-C scan shape, e.g. order lines of one order).
    """

    def __init__(self, expected_items: int, fpr: float,
                 prefix_columns: int) -> None:
        if prefix_columns < 1:
            raise ConfigError(
                f"prefix_columns must be >= 1: {prefix_columns}")
        self.prefix_columns = prefix_columns
        self._bloom = BloomFilter(expected_items, fpr)

    def add_digest(self, h1: int, h2: int) -> None:
        """Add a key prefix by its precomputed :func:`digest` pair."""
        self._bloom.add_digest(h1, h2)

    def query(self, encoded: bytes) -> bool:
        """Counted probe for an encoded prefix of exactly
        ``prefix_columns`` values (see :meth:`scan_probe`)."""
        return self._bloom.query(encoded)

    def scan_probe(self, lo: Key | None, hi: Key | None) -> bytes | None:
        """The encoded fixed prefix of a range predicate, ready for
        :meth:`query`; None when the filter cannot gate the range (see
        :meth:`applicable`) or the prefix holds a bound-only sentinel
        such as ``TOP``, which no stored key contains."""
        prefix = self.applicable(lo, hi)
        if prefix is None:
            return None
        try:
            return encode_key(prefix)
        except KeyCodecError:
            return None

    def applicable(self, lo: Key | None, hi: Key | None) -> Key | None:
        """The shared fixed prefix of a range predicate, if the filter applies.

        Returns the prefix values when ``lo`` and ``hi`` agree on the first
        ``prefix_columns`` columns (both present and equal), else ``None``.
        """
        if lo is None or hi is None:
            return None
        if len(lo) < self.prefix_columns or len(hi) < self.prefix_columns:
            return None
        lo_prefix = tuple(lo[:self.prefix_columns])
        hi_prefix = tuple(hi[:self.prefix_columns])
        if lo_prefix != hi_prefix:
            return None
        return lo_prefix

    def report_pass_outcome(self, found: bool) -> None:
        self._bloom.report_pass_outcome(found)

    @property
    def stats(self) -> FilterStats:
        return self._bloom.stats

    @property
    def size_bytes(self) -> int:
        return self._bloom.size_bytes

    @property
    def items_added(self) -> int:
        return self._bloom.items_added

    # --------------------------------------------------------- serialisation

    def to_state(self) -> tuple[int, tuple[int, int, int, bytes]]:
        return (self.prefix_columns, self._bloom.to_state())

    @classmethod
    def from_state(cls, prefix_columns: int,
                   state: tuple[int, int, int, bytes]
                   ) -> "PrefixBloomFilter":
        if prefix_columns < 1:
            raise ConfigError(
                f"prefix_columns must be >= 1: {prefix_columns}")
        obj = object.__new__(cls)
        obj.prefix_columns = prefix_columns
        obj._bloom = BloomFilter.from_state(*state)
        return obj


class ZoneMap:
    """Per-page pruning metadata of one persisted partition.

    The range-scan counterpart of the bloom filters above: where blooms gate
    *point* probes by key membership, the zone map gates *range* scans by
    page-level min/max **timestamp** bounds (fence keys already order the
    pages by key; the run keeps those).  For every page it records

    * ``min_ts`` / ``max_ts`` — timestamp bounds over the page's records
      (REGULAR_SET-aware: the spread of a set record's entries counts),
    * ``pure``  — 1 iff every record is plain visible matter (REGULAR,
      no flags); only pure pages are eligible for batch visibility,
    * ``nbytes`` — encoded payload bytes (zero-copy accounting).

    Deliberately dumb data over ``array`` columns with an int-only API: this
    module must not import :mod:`repro.core.records` (the package init pulls
    the tree, which pulls this module back).
    """

    __slots__ = ("page_min_ts", "page_max_ts", "page_pure", "page_bytes")

    def __init__(self, page_min_ts: "array[int]", page_max_ts: "array[int]",
                 page_pure: bytearray, page_bytes: "array[int]") -> None:
        if not (len(page_min_ts) == len(page_max_ts) == len(page_pure)
                == len(page_bytes)):
            raise ConfigError(
                f"zone map column lengths disagree: "
                f"{len(page_min_ts)}/{len(page_max_ts)}/"
                f"{len(page_pure)}/{len(page_bytes)}")
        self.page_min_ts = page_min_ts
        self.page_max_ts = page_max_ts
        self.page_pure = page_pure
        self.page_bytes = page_bytes

    def __len__(self) -> int:
        return len(self.page_min_ts)

    def page_possibly_visible(self, idx: int, xmax: int, owner: int) -> bool:
        """May page ``idx`` hold a record some snapshot-``xmax`` scan sees?

        Mirrors ``PersistedPartition.possibly_visible_to`` at page grain:
        a page whose every timestamp is at/after the snapshot's exclusive
        horizon contributes nothing — *unless* the owner itself wrote into
        the page's window (own writes are always visible).
        """
        min_ts = self.page_min_ts[idx]
        return min_ts < xmax or min_ts <= owner <= self.page_max_ts[idx]

    @property
    def size_bytes(self) -> int:
        return (self.page_min_ts.itemsize * len(self.page_min_ts)
                + self.page_max_ts.itemsize * len(self.page_max_ts)
                + len(self.page_pure)
                + self.page_bytes.itemsize * len(self.page_bytes))

    # --------------------------------------------------------- serialisation

    def to_state(self) -> tuple[list[int], list[int], bytes, list[int]]:
        """Durable state: ``(min_ts, max_ts, purity bytes, page bytes)``."""
        return (list(self.page_min_ts), list(self.page_max_ts),
                bytes(self.page_pure), list(self.page_bytes))

    @classmethod
    def from_state(cls, min_ts: list[int], max_ts: list[int],
                   pure: bytes, nbytes: list[int]) -> "ZoneMap":
        return cls(array("q", min_ts), array("q", max_ts),
                   bytearray(pure), array("Q", nbytes))

    def __repr__(self) -> str:
        return (f"ZoneMap(pages={len(self)}, "
                f"pure={sum(self.page_pure)}, bytes={self.size_bytes})")


class ZoneMapBuilder:
    """Streaming :class:`ZoneMap` accumulator (one ``add_page`` per seal).

    Fed by the run packer's page hook while records stream past, exactly
    like the digest replay of the bloom builders — no second pass over the
    partition's records.
    """

    __slots__ = ("_min_ts", "_max_ts", "_pure", "_bytes")

    def __init__(self) -> None:
        self._min_ts = array("q")
        self._max_ts = array("q")
        self._pure = bytearray()
        self._bytes = array("Q")

    def add_page(self, min_ts: int, max_ts: int, pure: bool,
                 nbytes: int) -> None:
        self._min_ts.append(min_ts)
        self._max_ts.append(max_ts)
        self._pure.append(1 if pure else 0)
        self._bytes.append(nbytes)

    def build(self) -> ZoneMap:
        return ZoneMap(self._min_ts, self._max_ts, self._pure, self._bytes)


class PartitionFilters(NamedTuple):
    """Everything a persisted MV-PBT partition prunes with besides its
    fences and timestamp range — the contents of its filter block."""

    bloom: BloomFilter | None
    prefix_bloom: PrefixBloomFilter | None
    zone_map: ZoneMap | None


# ------------------------------------------------------------- filter block

_BLOCK_MAGIC = b"MVPBTFB1"

_BLOCK_HEAD = struct.Struct("<8sII")   # magic, crc32 of the body, body length
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _pack_bloom(state: tuple[int, int, int, bytes] | None) -> bytes:
    if state is None:
        return _U8.pack(0)
    nbits, nhashes, items, bits = state
    return (_U8.pack(1) + _U32.pack(nbits) + _U8.pack(nhashes)
            + _U32.pack(items) + _U32.pack(len(bits)) + bits)


def _unpack_bloom(data: bytes, pos: int
                  ) -> tuple[tuple[int, int, int, bytes] | None, int]:
    present = data[pos]
    pos += 1
    if not present:
        return None, pos
    (nbits,) = _U32.unpack_from(data, pos)
    nhashes = data[pos + 4]
    (items,) = _U32.unpack_from(data, pos + 5)
    (blen,) = _U32.unpack_from(data, pos + 9)
    pos += 13
    return (nbits, nhashes, items, bytes(data[pos:pos + blen])), pos + blen


def _pack_zone(state: tuple[list[int], list[int], bytes, list[int]] | None
               ) -> bytes:
    if state is None:
        return _U8.pack(0)
    min_ts, max_ts, pure, nbytes = state
    out = bytearray(_U8.pack(1))
    out += _U32.pack(len(min_ts))
    for lo, hi in zip(min_ts, max_ts):
        out += _U64.pack(lo)
        out += _U64.pack(hi)
    out += bytes(pure)
    for used in nbytes:
        out += _U32.pack(used)
    return bytes(out)


def _unpack_zone(data: bytes, pos: int
                 ) -> tuple[tuple[list[int], list[int], bytes,
                                  list[int]] | None, int]:
    present = data[pos]
    pos += 1
    if not present:
        return None, pos
    (count,) = _U32.unpack_from(data, pos)
    pos += 4
    min_ts: list[int] = []
    max_ts: list[int] = []
    for _ in range(count):
        (lo,) = _U64.unpack_from(data, pos)
        (hi,) = _U64.unpack_from(data, pos + 8)
        min_ts.append(lo)
        max_ts.append(hi)
        pos += 16
    pure = bytes(data[pos:pos + count])
    if len(pure) != count:
        raise FilterBlockError("truncated zone-map purity bytes")
    pos += count
    nbytes = [_U32.unpack_from(data, pos + 4 * i)[0] for i in range(count)]
    pos += 4 * count
    return (min_ts, max_ts, pure, nbytes), pos


def filter_block_pages(filters: PartitionFilters,
                       page_size: int) -> list[bytes]:
    """Encode ``filters`` as a filter block cut into page images.

    The block is a 16-byte head (magic, CRC32 of the body, body length)
    and a body of the bloom, the prefix bloom (its width first, 0 for
    none) and the zone map; it spans as many pages as it needs and
    carries one checksum over all of them.
    """
    prefix = filters.prefix_bloom
    body = bytearray(_pack_bloom(filters.bloom.to_state()
                                 if filters.bloom is not None else None))
    if prefix is None:
        body += _U8.pack(0)
    else:
        body += _U8.pack(prefix.prefix_columns)
        body += _pack_bloom(prefix.to_state()[1])
    body += _pack_zone(filters.zone_map.to_state()
                       if filters.zone_map is not None else None)
    block = _BLOCK_HEAD.pack(_BLOCK_MAGIC,
                             zlib.crc32(body) & 0xFFFFFFFF,
                             len(body)) + bytes(body)
    return [block[i:i + page_size] for i in range(0, len(block), page_size)]


def decode_filter_block(pages: Sequence[object]) -> PartitionFilters:
    """Decode the page images :func:`filter_block_pages` wrote; raises
    :class:`FilterBlockError` unless they form one intact block."""
    if not all(isinstance(page, (bytes, bytearray)) for page in pages):
        raise FilterBlockError("filter block page is not a byte image")
    block = b"".join(pages)  # type: ignore[arg-type]
    try:
        magic, crc, length = _BLOCK_HEAD.unpack_from(block, 0)
        body = block[_BLOCK_HEAD.size:]
        if magic != _BLOCK_MAGIC:
            raise FilterBlockError("bad filter block magic")
        if len(body) != length or zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise FilterBlockError("filter block checksum mismatch")
        bloom, pos = _unpack_bloom(body, 0)
        prefix_columns = body[pos]
        prefix, pos = (_unpack_bloom(body, pos + 1) if prefix_columns
                       else (None, pos + 1))
        zone, pos = _unpack_zone(body, pos)
        if pos != length:
            raise FilterBlockError(
                f"filter block has {length - pos} trailing bytes")
        return PartitionFilters(
            BloomFilter.from_state(*bloom) if bloom is not None else None,
            PrefixBloomFilter.from_state(prefix_columns, prefix)
            if prefix is not None else None,
            ZoneMap.from_state(*zone) if zone is not None else None)
    except (struct.error, IndexError, ValueError, ConfigError) as exc:
        raise FilterBlockError(f"undecodable filter block: {exc}") from exc
