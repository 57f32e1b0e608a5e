"""The partition manifest superblock (DESIGN.md §11.1).

One durable record of the index forest's persisted state: for every MV-PBT,
the live persisted partitions (page numbers, fence keys, key range, record
counts, timestamp range, and the page numbers of the partition's filter
block — the filters themselves live beside the leaves), the ``P_N``
successor number, the tree-wide sequence counter and the WAL replay
floor; globally, the transaction-id watermark at the time of the flip.

Storage is a classic **double-buffered superblock**: two slots of at most
``slot_pages`` pages each, striped extent by extent over the manifest file
(slot ``s`` owns the file's extents ``s``, ``s + 2``, ``s + 4`` …) and
grown on demand, so a slot holds only the extents its largest flip wrote.
A flip bumps the epoch and rewrites the *other* slot (alternating by epoch
parity), so the previous manifest stays intact until the new one is fully
on disk.
Every page carries ``CRC32 | epoch | page index | page count | chunk
length``; a reader accepts a slot only if all its pages parse, share one
epoch and pass their CRCs, then picks the valid slot with the highest
epoch.  A crash anywhere during a flip therefore falls back to the
previous manifest — the flip is atomic.  Recovery reads the first page of
each slot, then the rest of the newer slot in sequential runs (one per
extent); the older slot is read only if the newer one fails.

Fence keys and key bounds are serialised with the order-preserving
:mod:`repro.storage.keycodec`, the same codec the runtime uses, so the
restored partitions bisect identically.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from ..errors import KeyCodecError, RecoveryError, StorageError
from ..storage.keycodec import decode_key, encode_key
from ..storage.pagefile import PageFile
from ..types import Key

MAGIC = b"MVPBTMF2"

_PAGE_HEAD = struct.Struct("<IQHHI")  # crc, epoch, page idx, page count, len
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass
class PartitionMeta:
    """Everything needed to re-attach one persisted partition unread."""

    number: int
    record_count: int
    size_bytes: int
    min_ts: int
    max_ts: int
    page_nos: list[int]
    fences: list[Key]
    min_key: Key | None
    max_key: Key | None
    #: the run's trailing filter block (bloom, prefix bloom, zone map),
    #: read on first use — never by recovery
    filter_pages: list[int] = field(default_factory=list)


@dataclass
class IndexManifest:
    """Durable state of one MV-PBT index."""

    name: str
    mem_number: int          #: partition number of the (re-created) ``P_N``
    next_seq: int            #: tree-wide sequence counter at the flip
    wal_floor: int           #: replay only WAL records with lsn >= floor
    partitions: list[PartitionMeta] = field(default_factory=list)


@dataclass
class ManifestState:
    """One full manifest image (everything a flip persists).

    The three transaction fields are the compact pg_xact equivalent: a
    txid below ``txid_watermark`` that is in neither ``aborted_txids`` nor
    ``active_txids`` was durably committed before the flip.  Outcomes of
    ``active_txids`` (in flight at the flip) and of txids at or above the
    watermark are resolved by WAL commit markers at recovery — absent a
    marker they count as aborted, which is exactly the no-durable-ack case.
    """

    txid_watermark: int      #: manager's next txid at the flip
    aborted_txids: list[int] = field(default_factory=list)
    active_txids: list[int] = field(default_factory=list)
    indexes: dict[str, IndexManifest] = field(default_factory=dict)


# ------------------------------------------------------------------ encoding

def _pack_key(key: Key | None) -> bytes:
    if key is None:
        return _U16.pack(0xFFFF)
    data = encode_key(key)
    if len(data) >= 0xFFFF:
        raise StorageError(f"manifest key too long: {len(data)} bytes")
    return _U16.pack(len(data)) + data


def _unpack_key(data: bytes, pos: int) -> tuple[Key | None, int]:
    (length,) = _U16.unpack_from(data, pos)
    pos += 2
    if length == 0xFFFF:
        return None, pos
    return decode_key(bytes(data[pos:pos + length])), pos + length


def encode_state(state: ManifestState) -> bytes:
    out = bytearray(MAGIC)
    out += _U64.pack(state.txid_watermark)
    for txids in (state.aborted_txids, state.active_txids):
        out += _U32.pack(len(txids))
        for txid in sorted(txids):
            out += _U64.pack(txid)
    out += _U16.pack(len(state.indexes))
    for name in sorted(state.indexes):
        ix = state.indexes[name]
        encoded_name = name.encode("utf-8")
        out += _U16.pack(len(encoded_name)) + encoded_name
        out += _U64.pack(ix.mem_number)
        out += _U64.pack(ix.next_seq)
        out += _U64.pack(ix.wal_floor)
        out += _U16.pack(len(ix.partitions))
        for part in ix.partitions:
            out += _U64.pack(part.number)
            out += _U64.pack(part.record_count)
            out += _U64.pack(part.size_bytes)
            out += _U64.pack(part.min_ts)
            out += _U64.pack(part.max_ts)
            out += _U32.pack(len(part.page_nos))
            for page_no in part.page_nos:
                out += _U32.pack(page_no)
            out += _U32.pack(len(part.fences))
            for fence in part.fences:
                out += _pack_key(fence)
            out += _pack_key(part.min_key)
            out += _pack_key(part.max_key)
            out += _U32.pack(len(part.filter_pages))
            for page_no in part.filter_pages:
                out += _U32.pack(page_no)
    return bytes(out)


def decode_state(data: bytes) -> ManifestState:
    try:
        if bytes(data[:len(MAGIC)]) != MAGIC:
            raise StorageError("bad manifest magic")
        pos = len(MAGIC)
        (watermark,) = _U64.unpack_from(data, pos)
        pos += 8
        txid_lists: list[list[int]] = []
        for _ in range(2):
            (count,) = _U32.unpack_from(data, pos)
            pos += 4
            txid_lists.append([_U64.unpack_from(data, pos + 8 * i)[0]
                               for i in range(count)])
            pos += 8 * count
        (n_indexes,) = _U16.unpack_from(data, pos)
        pos += 2
        state = ManifestState(txid_watermark=watermark,
                              aborted_txids=txid_lists[0],
                              active_txids=txid_lists[1])
        for _ in range(n_indexes):
            (name_len,) = _U16.unpack_from(data, pos)
            pos += 2
            name = bytes(data[pos:pos + name_len]).decode("utf-8")
            pos += name_len
            (mem_number,) = _U64.unpack_from(data, pos)
            (next_seq,) = _U64.unpack_from(data, pos + 8)
            (wal_floor,) = _U64.unpack_from(data, pos + 16)
            pos += 24
            (n_parts,) = _U16.unpack_from(data, pos)
            pos += 2
            ix = IndexManifest(name, mem_number, next_seq, wal_floor)
            for _p in range(n_parts):
                (number,) = _U64.unpack_from(data, pos)
                (record_count,) = _U64.unpack_from(data, pos + 8)
                (size_bytes,) = _U64.unpack_from(data, pos + 16)
                (min_ts,) = _U64.unpack_from(data, pos + 24)
                (max_ts,) = _U64.unpack_from(data, pos + 32)
                pos += 40
                (n_pages,) = _U32.unpack_from(data, pos)
                pos += 4
                page_nos = [_U32.unpack_from(data, pos + 4 * i)[0]
                            for i in range(n_pages)]
                pos += 4 * n_pages
                (n_fences,) = _U32.unpack_from(data, pos)
                pos += 4
                fences = []
                for _f in range(n_fences):
                    fence, pos = _unpack_key(data, pos)
                    fences.append(fence)
                min_key, pos = _unpack_key(data, pos)
                max_key, pos = _unpack_key(data, pos)
                (n_filter,) = _U32.unpack_from(data, pos)
                pos += 4
                filter_pages = [_U32.unpack_from(data, pos + 4 * i)[0]
                                for i in range(n_filter)]
                pos += 4 * n_filter
                ix.partitions.append(PartitionMeta(
                    number, record_count, size_bytes, min_ts, max_ts,
                    page_nos, fences, min_key, max_key, filter_pages))
            state.indexes[name] = ix
        return state
    except (struct.error, IndexError, ValueError, StorageError,
            KeyCodecError) as exc:
        raise RecoveryError(f"undecodable manifest body: {exc}") from exc


# ------------------------------------------------------------------- storage

def _parse_page(data: object, idx: int) -> tuple[int, int, bytes] | None:
    """Check one slot page image: ``(epoch, page count, payload)`` if it
    is a CRC-valid page number ``idx`` of its slot, else None."""
    if not isinstance(data, (bytes, bytearray)) \
            or len(data) < _PAGE_HEAD.size:
        return None
    crc, epoch, page_idx, total, length = _PAGE_HEAD.unpack_from(data, 0)
    payload = bytes(data[_PAGE_HEAD.size:_PAGE_HEAD.size + length])
    expect = zlib.crc32(data[4:_PAGE_HEAD.size] + payload) & 0xFFFFFFFF
    if crc != expect or page_idx != idx or len(payload) != length:
        return None
    return epoch, total, payload


class ManifestStore:
    """Double-buffered superblock storage on one manifest page file."""

    def __init__(self, file: PageFile, slot_pages: int) -> None:
        if slot_pages < 1:
            raise StorageError(f"slot_pages must be >= 1: {slot_pages}")
        self.file = file
        self.slot_pages = slot_pages
        self.epoch = 0
        self.flips = 0

    @property
    def _chunk_bytes(self) -> int:
        return self.file.page_size - _PAGE_HEAD.size

    def _page_no(self, slot: int, idx: int) -> int:
        """File page of page ``idx`` of ``slot``: the slot's j-th extent
        is the file's extent ``2j + slot`` (the file only ever grows by
        ``allocate_page``, so its page n lies in its extent n // E)."""
        extent = self.file.extent_pages
        return (2 * (idx // extent) + slot) * extent + idx % extent

    # ----------------------------------------------------------------- write

    def write(self, state: ManifestState) -> None:
        """Persist ``state`` as the next epoch (atomic flip).

        Writes the inactive slot front-to-back (sequential page writes
        inside the slot); the flip takes effect only once the last page —
        and with it the slot's complete CRC/epoch set — is durable.
        """
        body = encode_state(state)
        chunk = self._chunk_bytes
        pages = [body[i:i + chunk] for i in range(0, len(body), chunk)] or [b""]
        if len(pages) > self.slot_pages:
            raise StorageError(
                f"manifest body ({len(body)} bytes, {len(pages)} pages) "
                f"exceeds slot capacity ({self.slot_pages} pages); raise "
                f"manifest_slot_pages")
        epoch = self.epoch + 1
        slot = epoch % 2
        total = len(pages)
        # grow the file (whole extents) until the slot's last page exists
        while self.file.max_page_no <= self._page_no(slot, total - 1):
            self.file.allocate_page()
        for idx, payload in enumerate(pages):
            head_rest = _PAGE_HEAD.pack(0, epoch, idx, total, len(payload))
            crc = zlib.crc32(head_rest[4:] + payload) & 0xFFFFFFFF
            image = _PAGE_HEAD.pack(crc, epoch, idx, total,
                                    len(payload)) + payload
            self.file.write_page(self._page_no(slot, idx), image)
        self.epoch = epoch
        self.flips += 1

    # ------------------------------------------------------------------ read

    def _read_head(self, slot: int) -> tuple[int, int, bytes] | None:
        """Read and check a slot's first page: ``(epoch, page count,
        payload)``, or None when it cannot start a valid slot."""
        base = self._page_no(slot, 0)
        if not self.file.has_contents(base):
            return None
        head = _parse_page(self.file.read_page(base), 0)
        if head is None or not 1 <= head[1] <= self.slot_pages:
            return None
        return head

    def _read_rest(self, slot: int, head: tuple[int, int, bytes]
                   ) -> ManifestState | None:
        """Read a slot's remaining pages as sequential runs and validate
        the whole slot; returns its state or None."""
        epoch, total, payload = head
        rest = [self._page_no(slot, idx) for idx in range(1, total)]
        if not all(self.file.has_contents(page_no) for page_no in rest):
            return None
        chunks = [payload]
        for idx, data in enumerate(self.file.read_pages_sequential(rest), 1):
            page = _parse_page(data, idx)
            if page is None or page[:2] != (epoch, total):
                return None
            chunks.append(page[2])
        try:
            return decode_state(b"".join(chunks))
        except RecoveryError:
            return None

    @classmethod
    def attach(cls, file: PageFile, slot_pages: int
               ) -> tuple["ManifestStore", ManifestState | None]:
        """Load the newest valid manifest after a restart.

        Reads the first page of both slots, then the rest of the newer one
        as sequential runs; only if that slot fails validation is the older
        one read too.  The result is the valid slot with the highest epoch,
        as if both had been read in full; a device that never completed a
        flip yields ``(store, None)`` — the empty-forest state.
        """
        store = cls(file, slot_pages)
        heads = [(slot, head) for slot in (0, 1)
                 if (head := store._read_head(slot)) is not None]
        # newest first; on a tie slot 0 is tried first
        heads.sort(key=lambda item: -item[1][0])
        for slot, head in heads:
            state = store._read_rest(slot, head)
            if state is not None:
                store.epoch = head[0]
                return store, state
        return store, None

    def __repr__(self) -> str:
        return (f"ManifestStore(epoch={self.epoch}, flips={self.flips}, "
                f"slot_pages={self.slot_pages})")
