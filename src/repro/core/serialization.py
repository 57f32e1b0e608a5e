"""On-disk serialisation of MV-PBT records and partition leaf pages.

The simulation keeps page payloads as Python objects and *accounts* their
byte sizes through :func:`repro.core.records.record_size`; this module
provides the actual wire format those sizes approximate, so the on-disk
layout is specified, testable, and available to tooling (e.g. dumping a
partition image).

Record wire format (little-endian)::

    u8   record type          (RecordType)
    u8   flags
    u16  partition number
    u48  transaction timestamp
    u48  sequence number
    u48  vid
    u8   presence bits: 1 = rid_new, 2 = rid_old, 4 = payload, 8 = set
    [6B rid_new] [6B rid_old]
    [u32 payload length + UTF-8 payload]
    [u16 set count + count * (u48 vid, 6B rid, u48 ts, u48 seq)]
    u16  key length + encoded key (order-preserving codec)

Keys use :mod:`repro.storage.keycodec`; recordIDs pack as u32 page + u16
slot.
"""

from __future__ import annotations

import struct

from ..errors import KeyCodecError, StorageError
from ..storage.keycodec import decode_key, encode_key
from ..storage.recordid import RecordID
from ..types import Key, SetEntry
from .records import MVPBTRecord, RecordType

_HEADER = struct.Struct("<BBH")
_U48 = struct.Struct("<IH")   # low 32 + high 16
_RID = struct.Struct("<IH")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

HAS_RID_NEW = 0x01
HAS_RID_OLD = 0x02
HAS_PAYLOAD = 0x04
HAS_SET = 0x08


def _pack_u48(value: int) -> bytes:
    if not 0 <= value < (1 << 48):
        raise StorageError(f"value out of u48 range: {value}")
    return _U48.pack(value & 0xFFFFFFFF, value >> 32)


def _unpack_u48(data: bytes, pos: int) -> tuple[int, int]:
    low, high = _U48.unpack_from(data, pos)
    return low | (high << 32), pos + 6


def _pack_rid(rid: RecordID) -> bytes:
    return _RID.pack(rid.page, rid.slot)


def _unpack_rid(data: bytes, pos: int) -> tuple[RecordID, int]:
    page, slot = _RID.unpack_from(data, pos)
    return RecordID(page, slot), pos + 6


def encode_record(record: MVPBTRecord, partition_no: int = 0) -> bytes:
    """Serialise one MV-PBT record to its on-disk representation."""
    out = bytearray()
    out += _HEADER.pack(int(record.rtype), record.flags & 0xFF,
                        partition_no & 0xFFFF)
    out += _pack_u48(record.ts)
    out += _pack_u48(record.seq)
    out += _pack_u48(record.vid if record.vid >= 0 else 0)
    presence = 0
    if record.rid_new is not None:
        presence |= HAS_RID_NEW
    if record.rid_old is not None:
        presence |= HAS_RID_OLD
    if record.payload is not None:
        presence |= HAS_PAYLOAD
    if record.set_entries:
        presence |= HAS_SET
    out.append(presence)
    if record.rid_new is not None:
        out += _pack_rid(record.rid_new)
    if record.rid_old is not None:
        out += _pack_rid(record.rid_old)
    if record.payload is not None:
        payload = str(record.payload).encode("utf-8")
        out += _U32.pack(len(payload))
        out += payload
    if record.set_entries:
        out += _U16.pack(len(record.set_entries))
        for vid, rid, ts, seq in record.set_entries:
            out += _pack_u48(vid)
            out += _pack_rid(rid)
            out += _pack_u48(ts)
            out += _pack_u48(seq)
    key = encode_key(record.key)
    out += _U16.pack(len(key))
    out += key
    return bytes(out)


def decode_record(data: bytes, offset: int = 0) -> tuple[MVPBTRecord, int]:
    """Deserialise one record; returns (record, next offset)."""
    try:
        rtype_raw, flags, _pno = _HEADER.unpack_from(data, offset)
        pos = offset + _HEADER.size
        ts, pos = _unpack_u48(data, pos)
        seq, pos = _unpack_u48(data, pos)
        vid, pos = _unpack_u48(data, pos)
        presence = data[pos]
        pos += 1
        rid_new = rid_old = None
        payload = None
        set_entries: list[SetEntry] = []
        if presence & HAS_RID_NEW:
            rid_new, pos = _unpack_rid(data, pos)
        if presence & HAS_RID_OLD:
            rid_old, pos = _unpack_rid(data, pos)
        if presence & HAS_PAYLOAD:
            (length,) = _U32.unpack_from(data, pos)
            pos += 4
            raw = data[pos:pos + length]
            if len(raw) != length:
                raise StorageError(
                    f"corrupt MV-PBT record at {offset}: truncated payload "
                    f"({len(raw)} of {length} bytes)")
            payload = raw.decode("utf-8")
            pos += length
        if presence & HAS_SET:
            (count,) = _U16.unpack_from(data, pos)
            pos += 2
            for _ in range(count):
                entry_vid, pos = _unpack_u48(data, pos)
                entry_rid, pos = _unpack_rid(data, pos)
                entry_ts, pos = _unpack_u48(data, pos)
                entry_seq, pos = _unpack_u48(data, pos)
                set_entries.append((entry_vid, entry_rid, entry_ts,
                                    entry_seq))
        (key_len,) = _U16.unpack_from(data, pos)
        pos += 2
        key_bytes = data[pos:pos + key_len]
        if len(key_bytes) != key_len:
            raise StorageError(
                f"corrupt MV-PBT record at {offset}: truncated key "
                f"({len(key_bytes)} of {key_len} bytes)")
        key = decode_key(key_bytes)
        pos += key_len
        rtype = RecordType(rtype_raw)
    except (struct.error, ValueError, IndexError, KeyCodecError) as exc:
        raise StorageError(f"corrupt MV-PBT record at {offset}") from exc
    record = MVPBTRecord(key=key, ts=ts, seq=seq, rtype=rtype,
                         vid=(-1 if rtype is RecordType.REGULAR_SET else vid),
                         rid_new=rid_new, rid_old=rid_old, payload=payload,
                         flags=flags, set_entries=set_entries)
    return record, pos


# --------------------------------------------------------------------------
# v2 columnar leaf batch format — the one leaf page format
#
# The batch scan pipeline's wire format: where the record format above
# interleaves every record's fields (decode = one full parse per record), a
# leaf stores its records as dense parallel *columns* plus
# shared-prefix-compressed keys, so a whole leaf decodes in a single call
# into flat arrays and payload bytes are exposed as zero-copy
# ``memoryview`` slices of the page image::
#
#     u8   version (2)            u8  reserved
#     u16  record count           u16 partition number
#     u16  shared key prefix length + prefix bytes
#     u8[n]  record types         u8[n] flags        u8[n] presence bits
#     u48[n] timestamps           u48[n] sequence numbers
#     u48[n] vids
#     u32[n+1] key-suffix offsets   + suffix blob
#     u32[n+1] payload offsets      + payload blob (UTF-8, absent = empty)
#     6B per present rid_new (record order), 6B per present rid_old
#     per record with HAS_SET: u16 entry count + entries as in a record
#
# The shared prefix is the byte-wise common prefix of all *encoded* keys
# (order-preserving codec: on a sorted page of sequential integer keys that
# is the tag plus the leading big-endian bytes).

LEAF_BATCH_VERSION = 2


class LeafBatch:
    """One decoded leaf page as parallel columns (v2 format).

    ``payload_offsets``/``payload_blob`` expose payload bytes without
    copying: :meth:`payload_view` returns a ``memoryview`` slice of the
    buffer passed to :func:`decode_leaf_batch`.  **Ownership rule**
    (DESIGN.md §9.7): such views *borrow* the page image — they stay valid
    only while the backing buffer is alive and unrecycled; a consumer that
    retains payload bytes beyond the scan must copy them
    (``bytes(view)``).  A published batch is immutable — reprolint R3
    rejects mutation of its columns outside this module.
    """

    __slots__ = ("count", "partition_no", "prefix", "rtypes", "flags",
                 "presence", "ts", "seq", "vid", "key_offsets", "key_blob",
                 "payload_offsets", "payload_blob", "rids_new", "rids_old",
                 "set_entries")

    def __init__(self, count: int, partition_no: int, prefix: bytes,
                 rtypes: bytes, flags: bytes, presence: bytes,
                 ts: list[int], seq: list[int], vid: list[int],
                 key_offsets: list[int], key_blob: bytes,
                 payload_offsets: list[int], payload_blob: memoryview,
                 rids_new: list[RecordID | None],
                 rids_old: list[RecordID | None],
                 set_entries: dict[int, list[SetEntry]]) -> None:
        self.count = count
        self.partition_no = partition_no
        self.prefix = prefix
        self.rtypes = rtypes
        self.flags = flags
        self.presence = presence
        self.ts = ts
        self.seq = seq
        self.vid = vid
        self.key_offsets = key_offsets
        self.key_blob = key_blob
        self.payload_offsets = payload_offsets
        self.payload_blob = payload_blob
        self.rids_new = rids_new
        self.rids_old = rids_old
        self.set_entries = set_entries

    def key_bytes(self, idx: int) -> bytes:
        """Encoded key of record ``idx`` (prefix + stored suffix)."""
        offs = self.key_offsets
        return self.prefix + self.key_blob[offs[idx]:offs[idx + 1]]

    def keys(self) -> list[Key]:
        """All decoded keys, in page order."""
        return [decode_key(self.key_bytes(i)) for i in range(self.count)]

    def payload_view(self, idx: int) -> memoryview | None:
        """Zero-copy payload bytes of record ``idx`` (None when absent).

        Borrows the decode buffer — see the class docstring for how long
        the view may be retained.
        """
        if not self.presence[idx] & HAS_PAYLOAD:
            return None
        offs = self.payload_offsets
        return self.payload_blob[offs[idx]:offs[idx + 1]]

    def to_records(self) -> list[MVPBTRecord]:
        """Materialise the batch as record objects."""
        records = []
        for i in range(self.count):
            view = self.payload_view(i)
            payload = bytes(view).decode("utf-8") if view is not None \
                else None
            rtype = RecordType(self.rtypes[i])
            records.append(MVPBTRecord(
                key=decode_key(self.key_bytes(i)), ts=self.ts[i],
                seq=self.seq[i], rtype=rtype,
                vid=(-1 if rtype is RecordType.REGULAR_SET
                     else self.vid[i]),
                rid_new=self.rids_new[i], rid_old=self.rids_old[i],
                payload=payload, flags=self.flags[i],
                set_entries=list(self.set_entries.get(i, []))))
        return records

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"LeafBatch(records={self.count}, "
                f"prefix={len(self.prefix)}B, "
                f"payload={len(self.payload_blob)}B)")


def _common_prefix(first: bytes, last: bytes) -> bytes:
    limit = min(len(first), len(last))
    i = 0
    while i < limit and first[i] == last[i]:
        i += 1
    return first[:i]


def encode_leaf_batch(records: list[MVPBTRecord],
                      partition_no: int = 0) -> bytes:
    """Serialise a leaf page image in the v2 columnar batch format."""
    count = len(records)
    encoded_keys = [encode_key(r.key) for r in records]
    prefix = encoded_keys[0] if count else b""
    for encoded in encoded_keys[1:]:
        if not prefix:
            break
        prefix = _common_prefix(prefix, encoded)
    out = bytearray()
    out += bytes((LEAF_BATCH_VERSION, 0))
    out += _U16.pack(count)
    out += _U16.pack(partition_no & 0xFFFF)
    out += _U16.pack(len(prefix))
    out += prefix

    plen = len(prefix)
    presence = bytearray(count)
    for i, record in enumerate(records):
        bits = 0
        if record.rid_new is not None:
            bits |= HAS_RID_NEW
        if record.rid_old is not None:
            bits |= HAS_RID_OLD
        if record.payload is not None:
            bits |= HAS_PAYLOAD
        if record.set_entries:
            bits |= HAS_SET
        presence[i] = bits
    out += bytes(int(r.rtype) for r in records)
    out += bytes(r.flags & 0xFF for r in records)
    out += presence
    for record in records:
        out += _pack_u48(record.ts)
    for record in records:
        out += _pack_u48(record.seq)
    for record in records:
        out += _pack_u48(record.vid if record.vid >= 0 else 0)

    suffixes = [k[plen:] for k in encoded_keys]
    offset = 0
    for suffix in suffixes:
        out += _U32.pack(offset)
        offset += len(suffix)
    out += _U32.pack(offset)
    for suffix in suffixes:
        out += suffix

    payloads = [(str(r.payload).encode("utf-8")
                 if r.payload is not None else b"") for r in records]
    offset = 0
    for payload in payloads:
        out += _U32.pack(offset)
        offset += len(payload)
    out += _U32.pack(offset)
    for payload in payloads:
        out += payload

    for i, record in enumerate(records):
        if presence[i] & HAS_RID_NEW:
            out += _pack_rid(record.rid_new)  # type: ignore[arg-type]
    for i, record in enumerate(records):
        if presence[i] & HAS_RID_OLD:
            out += _pack_rid(record.rid_old)  # type: ignore[arg-type]
    for i, record in enumerate(records):
        if presence[i] & HAS_SET:
            out += _U16.pack(len(record.set_entries))
            for vid, rid, ts, seq in record.set_entries:
                out += _pack_u48(vid)
                out += _pack_rid(rid)
                out += _pack_u48(ts)
                out += _pack_u48(seq)
    return bytes(out)


def decode_leaf_batch(data: bytes | memoryview) -> LeafBatch:
    """Decode a v2 leaf image into parallel columns in one pass.

    ``data`` may be any buffer; payload bytes are *not* copied — the
    returned batch's payload views alias ``data`` (see
    :class:`LeafBatch` for the ownership rule).
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    try:
        if view[0] != LEAF_BATCH_VERSION:
            raise StorageError(
                f"bad leaf batch version: {view[0]}")
        (count,) = _U16.unpack_from(view, 2)
        (partition_no,) = _U16.unpack_from(view, 4)
        (plen,) = _U16.unpack_from(view, 6)
        pos = 8
        prefix = bytes(view[pos:pos + plen])
        pos += plen
        rtypes = bytes(view[pos:pos + count])
        pos += count
        flags = bytes(view[pos:pos + count])
        pos += count
        presence = bytes(view[pos:pos + count])
        pos += count
        if len(rtypes) != count or len(presence) != count:
            raise StorageError("truncated leaf batch columns")

        ts: list[int] = [0] * count
        for i in range(count):
            ts[i], pos = _unpack_u48(view, pos)
        seq: list[int] = [0] * count
        for i in range(count):
            seq[i], pos = _unpack_u48(view, pos)
        vid: list[int] = [0] * count
        for i in range(count):
            vid[i], pos = _unpack_u48(view, pos)

        key_offsets = list(struct.unpack_from(f"<{count + 1}I", view, pos))
        pos += 4 * (count + 1)
        key_blob = bytes(view[pos:pos + key_offsets[-1]])
        if len(key_blob) != key_offsets[-1]:
            raise StorageError("truncated leaf batch key blob")
        pos += key_offsets[-1]

        payload_offsets = list(struct.unpack_from(f"<{count + 1}I", view,
                                                  pos))
        pos += 4 * (count + 1)
        payload_blob = view[pos:pos + payload_offsets[-1]]
        if len(payload_blob) != payload_offsets[-1]:
            raise StorageError("truncated leaf batch payload blob")
        pos += payload_offsets[-1]

        rids_new: list[RecordID | None] = [None] * count
        for i in range(count):
            if presence[i] & HAS_RID_NEW:
                rids_new[i], pos = _unpack_rid(view, pos)
        rids_old: list[RecordID | None] = [None] * count
        for i in range(count):
            if presence[i] & HAS_RID_OLD:
                rids_old[i], pos = _unpack_rid(view, pos)
        set_entries: dict[int, list[SetEntry]] = {}
        for i in range(count):
            if presence[i] & HAS_SET:
                (n,) = _U16.unpack_from(view, pos)
                pos += 2
                entries: list[SetEntry] = []
                for _ in range(n):
                    entry_vid, pos = _unpack_u48(view, pos)
                    entry_rid, pos = _unpack_rid(view, pos)
                    entry_ts, pos = _unpack_u48(view, pos)
                    entry_seq, pos = _unpack_u48(view, pos)
                    entries.append((entry_vid, entry_rid, entry_ts,
                                    entry_seq))
                set_entries[i] = entries
    except (struct.error, ValueError, IndexError) as exc:
        raise StorageError("corrupt leaf batch image") from exc
    return LeafBatch(count, partition_no, prefix, rtypes, flags, presence,
                     ts, seq, vid, key_offsets, key_blob, payload_offsets,
                     payload_blob, rids_new, rids_old, set_entries)
