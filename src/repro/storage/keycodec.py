"""Order-preserving key encoding.

Index keys are tuples of Python values (int, float, str, bytes, None).  For
persisted structures (partition leaves, bloom filters, prefix filters) keys
are encoded to ``bytes`` such that ``encode_key(a) < encode_key(b)`` iff
``a < b`` under the index's column-wise ordering.

Encoding per element (1 type-tag byte + payload):

* ``None``  — tag only; sorts before every value (PostgreSQL NULLS FIRST).
* ``int``   — 8-byte big-endian two's complement with the sign bit flipped.
* ``float`` — IEEE-754 big-endian; negative values bit-inverted, positive
  values sign-flipped (the classic total-order trick).
* ``str``   — UTF-8 with 0x00 escaped as 0x00 0xFF, terminated by 0x00 0x00,
  so no encoded string is a prefix of another and ordering is bytewise.
* ``bytes`` — same escaping/termination as str.

Cross-type ordering is by type tag (None < int < float < str < bytes);
within a typed schema every column compares same-typed values, so this only
matters for heterogeneous ad-hoc keys.
"""

from __future__ import annotations

import struct
from typing import Sequence

from ..errors import KeyCodecError

TAG_NULL = 0x05
TAG_INT = 0x10
TAG_FLOAT = 0x18
TAG_STR = 0x20
TAG_BYTES = 0x28

_INT_STRUCT = struct.Struct(">Q")
_FLOAT_STRUCT = struct.Struct(">d")

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1

_TERMINATOR = b"\x00\x00"
_ESCAPED_ZERO = b"\x00\xff"


def _encode_int(value: int, out: bytearray) -> None:
    if not _INT_MIN <= value <= _INT_MAX:
        raise KeyCodecError(f"integer out of 64-bit range: {value}")
    out.append(TAG_INT)
    out += _INT_STRUCT.pack((value - _INT_MIN) & 0xFFFFFFFFFFFFFFFF)


def _encode_float(value: float, out: bytearray) -> None:
    out.append(TAG_FLOAT)
    (bits,) = _INT_STRUCT.unpack(_FLOAT_STRUCT.pack(value))
    if bits & (1 << 63):
        bits = ~bits & 0xFFFFFFFFFFFFFFFF
    else:
        bits |= 1 << 63
    out += _INT_STRUCT.pack(bits)


def _encode_blob(tag: int, raw: bytes, out: bytearray) -> None:
    out.append(tag)
    out += raw.replace(b"\x00", _ESCAPED_ZERO)
    out += _TERMINATOR


def _encode_value(value: object, out: bytearray) -> None:
    if value is None:
        out.append(TAG_NULL)
    elif isinstance(value, bool):
        # bool is an int subclass; encode as int for stable ordering.
        _encode_int(int(value), out)
    elif isinstance(value, int):
        _encode_int(value, out)
    elif isinstance(value, float):
        _encode_float(value, out)
    elif isinstance(value, str):
        _encode_blob(TAG_STR, value.encode("utf-8"), out)
    elif isinstance(value, (bytes, bytearray)):
        _encode_blob(TAG_BYTES, bytes(value), out)
    else:
        raise KeyCodecError(
            f"unsupported key element type: {type(value).__name__}")


def encode_key(values: Sequence[object]) -> bytes:
    """Encode a key tuple to order-preserving bytes."""
    out = bytearray()
    for value in values:
        _encode_value(value, out)
    return bytes(out)


def encode_key_with_prefix(values: Sequence[object],
                           ncolumns: int) -> tuple[bytes, bytes]:
    """Encode a key once, returning ``(full, prefix)`` encodings.

    The column encoding is concatenative, so the encoded prefix of the first
    ``ncolumns`` columns is a byte prefix of the full encoding — one encode
    pass serves both the partition bloom filter (full key) and the prefix
    bloom filter (leading columns).
    """
    out = bytearray()
    cut = -1
    for idx, value in enumerate(values):
        _encode_value(value, out)
        if idx + 1 == ncolumns:
            cut = len(out)
    full = bytes(out)
    return full, (full if cut < 0 else full[:cut])


def encoded_size(values: Sequence[object]) -> int:
    """Byte size of ``encode_key(values)`` without building intermediates.

    Used on hot paths for page-capacity accounting.
    """
    size = 0
    for value in values:
        if value is None:
            size += 1
        elif isinstance(value, (bool, int)):
            size += 9
        elif isinstance(value, float):
            size += 9
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            size += 1 + len(raw) + raw.count(b"\x00") + 2
        elif isinstance(value, (bytes, bytearray)):
            size += 1 + len(value) + bytes(value).count(b"\x00") + 2
        else:
            raise KeyCodecError(
                f"unsupported key element type: {type(value).__name__}")
    return size


def decode_key(data: bytes) -> tuple[object, ...]:
    """Decode bytes produced by :func:`encode_key` back into a tuple."""
    values: list[object] = []
    pos = 0
    n = len(data)
    while pos < n:
        tag = data[pos]
        pos += 1
        if tag == TAG_NULL:
            values.append(None)
        elif tag == TAG_INT:
            (raw,) = _INT_STRUCT.unpack_from(data, pos)
            values.append(raw + _INT_MIN)
            pos += 8
        elif tag == TAG_FLOAT:
            (bits,) = _INT_STRUCT.unpack_from(data, pos)
            if bits & (1 << 63):
                bits &= ~(1 << 63) & 0xFFFFFFFFFFFFFFFF
            else:
                bits = ~bits & 0xFFFFFFFFFFFFFFFF
            (value,) = _FLOAT_STRUCT.unpack(_INT_STRUCT.pack(bits))
            values.append(value)
            pos += 8
        elif tag in (TAG_STR, TAG_BYTES):
            raw, pos = _decode_blob(data, pos)
            values.append(raw.decode("utf-8") if tag == TAG_STR else raw)
        else:
            raise KeyCodecError(f"corrupt key encoding: bad tag 0x{tag:02x}")
    return tuple(values)


def _decode_blob(data: bytes, pos: int) -> tuple[bytes, int]:
    out = bytearray()
    n = len(data)
    while pos < n:
        byte = data[pos]
        if byte != 0x00:
            out.append(byte)
            pos += 1
            continue
        if pos + 1 >= n:
            raise KeyCodecError("corrupt key encoding: truncated escape")
        nxt = data[pos + 1]
        if nxt == 0x00:
            return bytes(out), pos + 2
        if nxt == 0xFF:
            out.append(0x00)
            pos += 2
            continue
        raise KeyCodecError(f"corrupt key encoding: bad escape 0x{nxt:02x}")
    raise KeyCodecError("corrupt key encoding: missing terminator")

