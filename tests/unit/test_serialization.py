"""Unit tests for the MV-PBT on-disk record format."""

import pytest

from repro.core.records import MVPBTRecord, RecordType
from repro.core.serialization import (decode_leaf_batch, decode_record,
                                      encode_leaf_batch, encode_record)
from repro.errors import StorageError
from repro.storage.recordid import RecordID


def roundtrip(record, partition_no=3):
    decoded, consumed = decode_record(encode_record(record, partition_no))
    assert consumed == len(encode_record(record, partition_no))
    return decoded


class TestRecordRoundtrip:
    def test_regular(self):
        r = MVPBTRecord((7, "abc"), 12, 34, RecordType.REGULAR, 9,
                        rid_new=RecordID(5, 6))
        d = roundtrip(r)
        assert (d.key, d.ts, d.seq, d.rtype, d.vid, d.rid_new, d.rid_old) \
            == ((7, "abc"), 12, 34, RecordType.REGULAR, 9, RecordID(5, 6),
                None)

    def test_replacement(self):
        r = MVPBTRecord((1,), 2, 3, RecordType.REPLACEMENT, 4,
                        rid_new=RecordID(1, 2), rid_old=RecordID(3, 4))
        d = roundtrip(r)
        assert d.rid_new == RecordID(1, 2)
        assert d.rid_old == RecordID(3, 4)

    def test_anti_and_tombstone(self):
        for rtype in (RecordType.ANTI, RecordType.TOMBSTONE):
            r = MVPBTRecord((1,), 2, 3, rtype, 4, rid_old=RecordID(3, 4))
            d = roundtrip(r)
            assert d.rtype is rtype
            assert d.rid_new is None

    def test_payload(self):
        r = MVPBTRecord(("k",), 1, 2, RecordType.REGULAR, 3,
                        rid_new=RecordID(0, 0), payload="hello wörld")
        assert roundtrip(r).payload == "hello wörld"

    def test_flags_preserved(self):
        r = MVPBTRecord((1,), 2, 3, RecordType.REGULAR, 4,
                        rid_new=RecordID(0, 0))
        r.mark_gc()
        assert roundtrip(r).is_gc

    def test_set_record(self):
        entries = [(i, RecordID(0, i), 10 + i, 20 + i) for i in range(5)]
        r = MVPBTRecord((7,), 14, 24, RecordType.REGULAR_SET, -1,
                        set_entries=entries)
        d = roundtrip(r)
        assert d.rtype is RecordType.REGULAR_SET
        assert d.set_entries == entries
        assert d.vid == -1

    def test_composite_keys(self):
        r = MVPBTRecord((1, "x", 2.5, None), 1, 2, RecordType.REGULAR, 3,
                        rid_new=RecordID(0, 0))
        assert roundtrip(r).key == (1, "x", 2.5, None)

    def test_large_timestamps(self):
        r = MVPBTRecord((1,), (1 << 48) - 1, (1 << 48) - 1,
                        RecordType.REGULAR, (1 << 48) - 1,
                        rid_new=RecordID(0, 0))
        d = roundtrip(r)
        assert d.ts == (1 << 48) - 1
        assert d.seq == (1 << 48) - 1

    def test_timestamp_overflow_rejected(self):
        r = MVPBTRecord((1,), 1 << 48, 0, RecordType.REGULAR, 1,
                        rid_new=RecordID(0, 0))
        with pytest.raises(StorageError):
            encode_record(r)


class TestLeafRoundtrip:
    def test_leaf_with_mixed_records(self):
        records = [
            MVPBTRecord((1,), 4, 4, RecordType.TOMBSTONE, 1,
                        rid_old=RecordID(0, 2)),
            MVPBTRecord((1,), 3, 3, RecordType.REPLACEMENT, 1,
                        rid_new=RecordID(0, 2), rid_old=RecordID(0, 1)),
            MVPBTRecord((7,), 1, 1, RecordType.REGULAR, 2,
                        rid_new=RecordID(0, 9), payload="v"),
        ]
        batch = decode_leaf_batch(encode_leaf_batch(records, partition_no=2))
        assert batch.partition_no == 2
        decoded = batch.to_records()
        assert len(decoded) == 3
        assert [d.rtype for d in decoded] == [r.rtype for r in records]
        assert [d.key for d in decoded] == [r.key for r in records]

    def test_empty_leaf(self):
        assert decode_leaf_batch(encode_leaf_batch([])).to_records() == []

    def test_corrupt_data_raises(self):
        with pytest.raises(StorageError):
            decode_record(b"\xff\x00\x00\x01")

    def test_truncated_key_reports_context(self):
        """Regression: truncation used to raise a bare ValueError whose
        context was swallowed by the generic corrupt-record wrapper."""
        blob = encode_record(MVPBTRecord((7, "abc"), 1, 1,
                                         RecordType.REGULAR, 2,
                                         rid_new=RecordID(0, 0)))
        with pytest.raises(StorageError, match="truncated key"):
            decode_record(blob[:-1])

    def test_truncated_payload_reports_context(self):
        from repro.core.serialization import _U32
        r = MVPBTRecord((1,), 1, 1, RecordType.REGULAR, 2,
                        rid_new=RecordID(0, 0), payload="hello")
        blob = encode_record(r)
        needle = _U32.pack(5) + b"hello"
        assert needle in blob
        corrupt = blob.replace(needle, _U32.pack(500) + b"hello")
        with pytest.raises(StorageError, match="truncated payload"):
            decode_record(corrupt)

    def test_corruption_is_catchable_as_repro_error(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            decode_record(b"\xff\x00\x00\x01")

    def test_encoded_size_close_to_accounted(self):
        """The cost model's accounted sizes approximate the wire format."""
        from repro.core.records import ReferenceMode, record_size
        r = MVPBTRecord((123456, "customer"), 99, 1, RecordType.REPLACEMENT,
                        7, rid_new=RecordID(10, 2), rid_old=RecordID(9, 1))
        wire = len(encode_record(r))
        accounted = record_size(r, ReferenceMode.PHYSICAL)
        assert abs(wire - accounted) <= 16


class TestLeafBatchV2:
    """The v2 columnar batch codec (batched scan pipeline wire format)."""

    def _records(self, n=20):
        return [
            MVPBTRecord((f"user{i:04d}", i), 10 + i, i, RecordType.REGULAR,
                        i + 1, rid_new=RecordID(1, i), payload=f"v{i}")
            for i in range(n)
        ]

    def test_roundtrip_matches_v1(self):
        records = self._records()
        records.append(MVPBTRecord(
            ("user9998",), 99, 99, RecordType.REGULAR_SET, -1,
            set_entries=[(1, RecordID(2, 3), 77, 5),
                         (2, RecordID(4, 5), 78, 6)]))
        records.append(MVPBTRecord(
            ("user9999",), 50, 51, RecordType.TOMBSTONE, 9, flags=1,
            rid_old=RecordID(7, 8)))
        batch = decode_leaf_batch(encode_leaf_batch(records, partition_no=3))
        assert batch.to_records() == records

    def test_shared_prefix_nonzero_on_sequential_keys(self):
        records = self._records()
        batch = decode_leaf_batch(encode_leaf_batch(records))
        assert len(batch.prefix) > 0
        # prefix compression must make the image smaller than the
        # records' own encodings behind a u16 count
        assert len(encode_leaf_batch(records)) < 2 + sum(
            len(encode_record(r)) for r in records)

    def test_prefix_correct_on_unsorted_keys(self):
        """The prefix is the common prefix of ALL keys, not just
        first/last — unsorted input must not corrupt middle keys."""
        records = [
            MVPBTRecord(("aaa",), 1, 0, RecordType.REGULAR, 1,
                        rid_new=RecordID(0, 0)),
            MVPBTRecord(("zzz",), 2, 1, RecordType.REGULAR, 2,
                        rid_new=RecordID(0, 1)),
            MVPBTRecord(("aab",), 3, 2, RecordType.REGULAR, 3,
                        rid_new=RecordID(0, 2)),
        ]
        batch = decode_leaf_batch(encode_leaf_batch(records))
        assert batch.to_records() == records

    def test_payload_view_is_zero_copy(self):
        records = self._records(4)
        blob = encode_leaf_batch(records)
        batch = decode_leaf_batch(blob)
        view = batch.payload_view(2)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"v2"
        # the view aliases the encoded image, not a copy
        base = memoryview(blob)
        assert view.obj is base.obj

    def test_payload_view_absent_is_none(self):
        record = MVPBTRecord((1,), 2, 3, RecordType.ANTI, 4,
                             rid_old=RecordID(0, 0))
        batch = decode_leaf_batch(encode_leaf_batch([record]))
        assert batch.payload_view(0) is None

    def test_empty_batch(self):
        batch = decode_leaf_batch(encode_leaf_batch([]))
        assert len(batch) == 0
        assert batch.to_records() == []

    def test_keys_column(self):
        records = self._records(8)
        batch = decode_leaf_batch(encode_leaf_batch(records))
        assert batch.keys() == [r.key for r in records]

    def test_bad_version_raises(self):
        blob = bytearray(encode_leaf_batch(self._records(2)))
        blob[0] = 9
        with pytest.raises(StorageError):
            decode_leaf_batch(bytes(blob))

    def test_truncated_raises_typed(self):
        blob = encode_leaf_batch(self._records(6))
        with pytest.raises(StorageError):
            decode_leaf_batch(blob[:len(blob) // 2])

    def test_decode_accepts_memoryview(self):
        records = self._records(3)
        blob = encode_leaf_batch(records)
        batch = decode_leaf_batch(memoryview(blob))
        assert batch.to_records() == records
