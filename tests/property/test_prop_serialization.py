"""Property tests: record/leaf wire format round-trips losslessly.

Random partitions covering all record types — REGULAR, REPLACEMENT, ANTI,
TOMBSTONE and REGULAR_SET — must survive ``encode_leaf_batch`` /
``decode_leaf_batch`` exactly, including duplicate-key runs that span
leaf-page boundaries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import MVPBTRecord, RecordType
from repro.core.serialization import (decode_leaf_batch, decode_record,
                                      encode_leaf_batch, encode_record)
from repro.errors import StorageError
from repro.storage.recordid import RecordID


U48 = st.integers(min_value=0, max_value=(1 << 48) - 1)
KEYS = st.lists(st.one_of(st.integers(min_value=-(2 ** 40),
                                      max_value=2 ** 40),
                          st.text(max_size=12)),
                min_size=1, max_size=3).map(tuple)
RIDS = st.builds(RecordID,
                 st.integers(min_value=0, max_value=2 ** 32 - 1),
                 st.integers(min_value=0, max_value=2 ** 16 - 1))
SET_ENTRIES = st.lists(st.tuples(U48, RIDS, U48, U48), min_size=0,
                       max_size=5)
PAYLOADS = st.one_of(st.none(), st.text(max_size=30))


@st.composite
def records(draw) -> MVPBTRecord:
    rtype = draw(st.sampled_from(list(RecordType)))
    is_set = rtype is RecordType.REGULAR_SET
    return MVPBTRecord(
        key=draw(KEYS),
        ts=draw(U48),
        seq=draw(U48),
        rtype=rtype,
        # REGULAR_SET carries its identities in set_entries, vid is -1
        vid=-1 if is_set else draw(U48),
        rid_new=draw(st.none() if is_set else st.one_of(st.none(), RIDS)),
        rid_old=draw(st.none() if is_set else st.one_of(st.none(), RIDS)),
        payload=draw(PAYLOADS),
        flags=draw(st.integers(min_value=0, max_value=255)),
        set_entries=draw(SET_ENTRIES) if is_set else [],
    )


def leaf_roundtrip(leaf: list[MVPBTRecord],
                   partition_no: int = 0) -> list[MVPBTRecord]:
    return decode_leaf_batch(
        encode_leaf_batch(leaf, partition_no)).to_records()


@given(records())
def test_single_record_roundtrip(record):
    data = encode_record(record, partition_no=7)
    decoded, end = decode_record(data)
    assert decoded == record
    assert end == len(data)


@given(st.lists(records(), max_size=12))
def test_leaf_roundtrip(partition):
    assert leaf_roundtrip(partition, partition_no=3) == partition


@settings(max_examples=50)
@given(key=KEYS,
       dups=st.integers(min_value=2, max_value=8),
       others=st.lists(records(), max_size=6),
       ts0=st.integers(min_value=0, max_value=(1 << 48) - 10),
       split=st.integers(min_value=1, max_value=7))
def test_duplicate_run_spanning_leaf_boundary(key, dups, others, ts0, split):
    """A run of same-key versions chunked across several leaf images
    decodes back to the exact original partition sequence."""
    run = [MVPBTRecord(key=key, ts=ts0 + i, seq=i,
                       rtype=RecordType.REPLACEMENT, vid=i,
                       rid_new=RecordID(i, 0), rid_old=RecordID(i, 1))
           for i in range(dups)]
    partition = others[:len(others) // 2] + run + others[len(others) // 2:]
    cut = min(split, len(partition))
    leaves = [partition[:cut], partition[cut:]]
    decoded = [r for leaf in leaves for r in leaf_roundtrip(leaf)]
    assert decoded == partition
    # the duplicate run genuinely crosses the boundary for some cut points
    if 0 < cut - len(others) // 2 < dups:
        assert any(r.key == key for r in leaf_roundtrip(leaves[0]))
        assert any(r.key == key for r in leaf_roundtrip(leaves[1]))


@given(records(), st.integers(min_value=0, max_value=200))
def test_truncated_record_fails_typed_or_decodes_short(record, cut):
    """Corruption never escapes as an untyped exception.

    Cuts inside the fixed-size header always raise :class:`StorageError`;
    cuts inside a variable-length tail (payload/key bytes) may decode to a
    shorter value — but never to the original record image's full length.
    """
    data = encode_record(record)
    if cut >= len(data):
        return
    fixed_header = 23  # type/flags/pno + ts + seq + vid + presence byte
    try:
        _, end = decode_record(data[:cut])
    except StorageError:
        return
    assert cut >= fixed_header
    assert end <= cut


def test_every_record_type_roundtrips():
    samples = [
        MVPBTRecord(key=(1,), ts=10, seq=0, rtype=RecordType.REGULAR, vid=5,
                    rid_new=RecordID(1, 2)),
        MVPBTRecord(key=("k",), ts=11, seq=1, rtype=RecordType.REPLACEMENT,
                    vid=5, rid_new=RecordID(3, 4), rid_old=RecordID(1, 2),
                    payload="v"),
        MVPBTRecord(key=(1, "a"), ts=12, seq=2, rtype=RecordType.ANTI, vid=5,
                    rid_old=RecordID(3, 4)),
        MVPBTRecord(key=(-9,), ts=13, seq=3, rtype=RecordType.TOMBSTONE,
                    vid=5, rid_old=RecordID(3, 4)),
        MVPBTRecord(key=(2,), ts=14, seq=4, rtype=RecordType.REGULAR_SET,
                    vid=-1,
                    set_entries=[(7, RecordID(5, 6), 14, 4),
                                 (8, RecordID(5, 7), 13, 3)]),
    ]
    assert {r.rtype for r in samples} == set(RecordType)
    assert leaf_roundtrip(samples) == samples
