"""Property test on the write-ahead log's append path (DESIGN.md §11.2).

For arbitrary sequences of appends of arbitrary entry sizes — with staged
markers sprinkled in — replay returns every appended entry, in order, and
no append is split across pages unless it is larger than a page.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.wal import (KIND_COMMIT, KIND_NOTE, WriteAheadLog,
                                  parse_entries)
from repro.sim.clock import SimClock
from repro.sim.device import SECTOR_BYTES, SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile

PAGE = 2048
#: header + CRC around a NOTE payload
OVERHEAD = 15

#: one append: NOTE payload sizes, and whether a marker is staged first
append = st.tuples(
    st.lists(st.integers(min_value=0, max_value=PAGE - OVERHEAD),
             min_size=1, max_size=6),
    st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.lists(append, min_size=1, max_size=40))
def test_every_append_replays_in_order_and_unsplit(appends):
    device = SimulatedDevice(UNIT_TEST_PROFILE, SimClock())
    file = PageFile("wal", device, PAGE, 8)
    wal = WriteAheadLog(file)
    expected: list[tuple[int, int, bytes]] = []   # (kind, txid, payload)
    spans: list[tuple[int, int, int]] = []        # (first lsn, last lsn, bytes)
    for n, (sizes, staged) in enumerate(appends):
        first = wal.end_lsn
        nbytes = 0
        if staged:
            wal.stage_commit_marker(n)
            expected.append((KIND_COMMIT, n, b""))
            nbytes += OVERHEAD + 8
        notes = [bytes([n % 256]) * size for size in sizes]
        wal._append([(KIND_NOTE, note) for note in notes])
        expected.extend((KIND_NOTE, 0, note) for note in notes)
        nbytes += sum(OVERHEAD + size for size in sizes)
        spans.append((first, wal.end_lsn - 1, nbytes))
    assert wal.appends == len(appends)
    assert wal.bytes_written == device.stats.bytes_written
    assert wal.bytes_written % SECTOR_BYTES == 0

    recovered, entries = WriteAheadLog.recover(file)
    assert [(e.kind, e.txid, e.note) for e in entries] == expected
    assert [e.lsn for e in entries] == list(range(1, wal.end_lsn))
    assert recovered.end_lsn == wal.end_lsn

    page_of = {}
    for page_no in range(file.max_page_no):
        if file.has_contents(page_no):
            for entry in parse_entries(bytes(file.peek(page_no))):
                page_of[entry.lsn] = page_no
    for first, last, nbytes in spans:
        pages = {page_of[lsn] for lsn in range(first, last + 1)}
        assert len(pages) == 1 or nbytes > PAGE, (
            f"append lsn {first}..{last} ({nbytes} B) split over {pages}")
