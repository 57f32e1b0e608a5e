"""Property test on replay's one-copy rule (DESIGN.md §11.3).

A crash between a checkpoint's image and its manifest flip leaves records
in the log twice above the old floor.  For any sequence of appends, with
any per-index floors, :func:`read_durable_state` returns, per index, the
first copy at or above the floor of every ``seq`` — in log order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import MVPBTRecord, RecordType
from repro.durability.manifest import (IndexManifest, ManifestState,
                                       ManifestStore)
from repro.durability.recovery import read_durable_state
from repro.durability.wal import WriteAheadLog
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID

NAMES = ("a", "b")
SLOT_PAGES = 6

#: one append: (index, seq) per RECORD entry
append = st.lists(st.tuples(st.sampled_from(NAMES),
                            st.integers(min_value=0, max_value=12)),
                  min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.lists(append, min_size=1, max_size=20),
       st.none() | st.tuples(st.integers(min_value=1, max_value=80),
                             st.integers(min_value=1, max_value=80)))
def test_replay_keeps_the_first_copy_per_index_and_seq(appends, floors):
    device = SimulatedDevice(UNIT_TEST_PROFILE, SimClock())
    wal_file = PageFile("wal", device, 512, 8)
    manifest_file = PageFile("manifest", device, 512, 8)
    wal = WriteAheadLog(wal_file)
    logged: list[tuple[int, str, MVPBTRecord]] = []
    for copy, entries in enumerate(appends):
        # the append number tells the copies of one seq apart
        batch = [(name, MVPBTRecord((seq,), 1, seq, RecordType.REGULAR,
                                    copy, rid_new=RecordID(copy, seq)))
                 for name, seq in entries]
        logged.extend((lsn, name, record)
                      for lsn, (name, record) in enumerate(batch,
                                                           wal.end_lsn))
        wal.log(batch)
    floor = dict.fromkeys(NAMES, 0)
    if floors is not None:
        floor = dict(zip(NAMES, floors))
        ManifestStore(manifest_file, SLOT_PAGES).write(ManifestState(
            txid_watermark=2,
            indexes={name: IndexManifest(name, 0, 13, floor[name])
                     for name in NAMES}))

    durable = read_durable_state(manifest_file, wal_file, SLOT_PAGES)

    expected: dict[str, dict[int, int]] = {}
    for lsn, name, record in logged:
        if lsn >= floor[name]:
            expected.setdefault(name, {}).setdefault(record.seq, record.vid)
    got = {name: [(r.seq, r.vid) for r in records]
           for name, records in durable.records.items()}
    assert got == {name: list(kept.items())
                   for name, kept in expected.items()}
