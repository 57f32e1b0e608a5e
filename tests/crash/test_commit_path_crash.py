"""Crash coverage for the commit path's four I/O rules (DESIGN.md
§11.2, §11.3, §16.3): a commit that wrote nothing does no WAL I/O, a tail
append writes only the sectors it changed and never straddles a page when
it fits one, an append closes on a sector boundary (a PAD entry) when that
costs no more than its own bytes, and a 2PC phase-two marker is staged
instead of written.

Each test either pins an I/O count the whole-page / marker-per-commit /
mid-sector-append design could not meet, or reaches a state it did not
have (an elided commit, a torn *ranged* write, a torn PAD, a
staged-but-unwritten marker).
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.durability.controller import HORIZON_STRIDE
from repro.durability.wal import (_HEAD, KIND_COMMIT, KIND_NOTE, KIND_PAD,
                                  KIND_RECORD, MIN_ENTRY_BYTES, WriteAheadLog,
                                  parse_entries)
from repro.engine.database import Database
from repro.errors import DeviceCrashError
from repro.sim.clock import SimClock
from repro.sim.device import SECTOR_BYTES, FaultPlan, SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.status import TxnStatus

from .harness import (INDEX, TABLE, Script, apply_db_op, make_db,
                      recover_and_check, run_workload)
from .test_durability_units import rec

pytestmark = pytest.mark.crash


# ------------------------------------------- (a) read-only commits elided

#: writers interleaved with commits that wrote nothing: pure reads, an
#: empty transaction, and an update that matches no row
MIXED_SCRIPT: Script = [
    ("commit", [("insert", i, f"a{i}") for i in range(0, 8)]),
    ("commit", [("read", 3), ("read", 99)]),
    ("commit", [("update", 3, "b3"), ("delete", 5)]),
    ("commit", []),
    ("commit", [("read", i) for i in range(0, 8)]),
    ("abort", [("insert", 90, "x90"), ("read", 1)]),
    ("commit", [("insert", i, f"c{i}") for i in range(8, 30)]),
    ("commit", [("update", 77, "nobody")]),
    ("commit", [("move", 2, 40), ("read", 2)]),
    ("commit", [("read", 40)]),
    ("commit", [("insert", i, f"d{i}") for i in range(41, 50)]),
    ("commit", [("read", 41)]),
]

#: positions in MIXED_SCRIPT whose commit writes nothing
ELIDED_STEPS = (1, 3, 4, 7, 9, 11)


def _wal_write_indexes() -> list[int]:
    """Device I/O indexes of the WAL writes of a clean MIXED_SCRIPT run."""
    db = make_db()
    first = db.device.io_count
    db.trace.enable()
    for outcome, ops in MIXED_SCRIPT:
        txn = db.begin()
        for op in ops:
            apply_db_op(db, txn, op)
        if outcome == "commit":
            txn.commit()
        else:
            txn.abort()
    wal_file = db.wal_file
    wal_sectors = {lba for addr in wal_file._addresses.values()
                   for lba in range(addr // 512,
                                    (addr + wal_file.page_size) // 512)}
    return [first + k for k, entry in enumerate(db.trace.entries())
            if entry.kind == "W" and entry.lba in wal_sectors]


def test_commits_that_wrote_nothing_do_no_io() -> None:
    run = run_workload(script=MIXED_SCRIPT, obs=True)
    assert not run.crashed
    wal = run.db.durability.wal
    writers = sum(1 for k, (outcome, _ops) in enumerate(MIXED_SCRIPT)
                  if outcome == "commit" and k not in ELIDED_STEPS)
    # one append per writing commit, none for the rest (the create_index
    # build pass found an empty table and logged nothing)
    assert wal.appends == writers
    assert wal.commit_markers == writers
    registry = run.db.obs.registry
    assert registry.counter_value("wal.commits_elided") == len(ELIDED_STEPS)
    assert registry.counter_value("txn.commit.count") \
        == writers + len(ELIDED_STEPS)


def test_every_stride_th_txid_keeps_its_marker() -> None:
    """The horizon marker: of 2 * HORIZON_STRIDE read-only commits exactly
    the ones whose txid is a multiple of the stride append (a lone COMMIT
    marker, one sector), and recovery knows those ids as committed."""
    db = make_db(obs=True)
    wal = db.durability.wal
    appends, written = wal.appends, wal.bytes_written
    ids = []
    for _ in range(2 * HORIZON_STRIDE):
        txn = db.begin()
        apply_db_op(db, txn, ("read", 1))
        txn.commit()
        ids.append(txn.id)
    horizon = [txid for txid in ids if txid % HORIZON_STRIDE == 0]
    assert len(horizon) == 2
    assert wal.appends - appends == wal.commit_markers == 2
    assert wal.bytes_written - written == 2 * SECTOR_BYTES
    assert db.obs.registry.counter_value("wal.commits_elided") \
        == len(ids) - 2
    recovered = Database.recover(db)
    status = recovered.txn.commit_log.status
    assert [txid for txid in ids if status(txid) is TxnStatus.COMMITTED] \
        == horizon


@pytest.mark.parametrize("mode", ("clean", "torn"))
def test_mixed_history_killed_at_every_wal_io(mode: str) -> None:
    """Kill the device at every WAL write of a history that interleaves
    elided and writing commits: every horizon — the elided commits' own
    included — answers like the oracle, and no id is handed out twice."""
    points = _wal_write_indexes()
    assert len(points) >= 6
    for k in points:
        run = run_workload(FaultPlan(fail_at=k, mode=mode, fraction=0.6),
                           script=MIXED_SCRIPT)
        assert run.crashed, f"fail_at={k} must crash"
        issued = run.db.txn.next_txid
        recovered = recover_and_check(run, context=f"{mode} k={k}")
        # an elided commit left no durable trace, yet its id is spent
        assert recovered.txn.next_txid >= issued
        assert recovered.begin().id >= issued


# ------------------------------------ (b) torn / partial ranged appends

def _wal(page_size: int) -> tuple[SimulatedDevice, PageFile, WriteAheadLog]:
    device = SimulatedDevice(UNIT_TEST_PROFILE, SimClock())
    file = PageFile("wal_test", device, page_size, 8)
    return device, file, WriteAheadLog(file)


def _entries(file: PageFile, page_no: int) -> list[tuple[int, int]]:
    """``(kind, end offset)`` of every entry in one log page, in order,
    PAD entries included."""
    data = bytes(file.peek(page_no))
    out, pos = [], 0
    while pos + MIN_ENTRY_BYTES <= len(data):
        plen, _lsn, kind = _HEAD.unpack_from(data, pos)
        pos += MIN_ENTRY_BYTES + plen
        out.append((kind, pos))
    return out


def _entry_ends(file: PageFile, page_no: int) -> list[int]:
    """End offset of every LSN-carrying entry in one log page, in order."""
    return [end for kind, end in _entries(file, page_no) if kind != KIND_PAD]


def test_append_writes_only_the_sectors_it_changed() -> None:
    device, _file, wal = _wal(8192)
    wal.log([("ix", rec(1, 5, 0))], commit_txid=5)
    first = device.stats.bytes_written
    assert first == SECTOR_BYTES            # ~90 bytes: one sector, not 8 KiB
    wal.log([("ix", rec(2, 6, 1))], commit_txid=6)
    assert device.stats.bytes_written - first == SECTOR_BYTES
    assert wal.bytes_written == device.stats.bytes_written
    assert wal.pages_written == 2           # page touches, as before


def test_torn_ranged_append_at_every_sector_prefix() -> None:
    """Tear one multi-sector append behind a padded tail after each whole
    number of sectors.  The request starts at the acknowledged end, so no
    acknowledged sector is re-written: the acknowledged image survives
    byte for byte, and exactly the entries that fit inside the persisted
    sectors join it."""
    def build() -> tuple[SimulatedDevice, PageFile, WriteAheadLog]:
        device, file, wal = _wal(8192)
        for i in range(3):                   # acknowledged, padded
            wal.log([("ix", rec(10 * i + j, i + 1, 10 * i + j))
                     for j in range(6)], commit_txid=i + 1)
        return device, file, wal

    big = [("ix", rec(100 + i, 9, 100 + i)) for i in range(40)]
    device, file, wal = build()
    acked = wal.end_lsn - 1
    offset = wal._tail_len
    assert offset % SECTOR_BYTES == 0 and wal.pad_bytes > 0
    acked_image = bytes(file.peek(0))
    before = device.stats.snapshot()
    device.trace.enable()
    wal.log(big, commit_txid=9)
    (entry,) = device.trace.entries("W")
    assert entry.lba * SECTOR_BYTES == file._addresses[0] + offset
    assert device.stats.delta(before).seq_writes == 1
    ends = _entry_ends(file, 0)
    request = device.stats.delta(before).bytes_written
    sectors = request // SECTOR_BYTES
    assert sectors >= 4

    for persisted_sectors in range(sectors + 1):
        device, file, wal = build()
        fraction = min(1.0, (persisted_sectors * SECTOR_BYTES + 1) / request)
        device.set_fault_plan(FaultPlan(fail_at=device.io_count,
                                        mode="torn", fraction=fraction))
        with pytest.raises(DeviceCrashError):
            wal.log(big, commit_txid=9)
        device.reboot()
        assert bytes(file.peek(0))[:offset] == acked_image
        _, entries = WriteAheadLog.recover(file)
        durable_end = offset + persisted_sectors * SECTOR_BYTES
        want = sum(1 for end in ends if end <= durable_end)
        assert [e.lsn for e in entries] == list(range(1, want + 1)), (
            f"{persisted_sectors} sectors persisted")
        assert want >= acked
        committed = {e.txid for e in entries if e.kind == KIND_COMMIT}
        assert (9 in committed) == (want == len(ends))


def test_partial_extent_kill_on_an_append_that_seals_and_opens() -> None:
    """An append larger than a page fills the tail, seals it and opens
    the next page — two device writes.  Kill either one with a
    page-granular persisted prefix: what survives is the acknowledged
    entries plus whole earlier writes of the append, never its marker."""
    def build() -> tuple[SimulatedDevice, PageFile, WriteAheadLog]:
        device, file, wal = _wal(1024)
        wal.log([("ix", rec(0, 1, 0))], commit_txid=1)
        return device, file, wal

    big = [("ix", rec(100 + i, 2, 10 + i)) for i in range(25)]
    device, file, wal = build()
    before = device.io_count
    wal.log(big, commit_txid=2)
    writes = device.io_count - before
    assert writes >= 2 and len(wal._pages) == writes - 1
    # write k lands on page k; page 0 also holds the two acknowledged entries
    per_page = [len(_entry_ends(file, no)) for no in range(writes)]

    for k in range(writes):
        device, file, wal = build()
        device.set_fault_plan(FaultPlan(
            fail_at=device.io_count + k, mode="partial_extent",
            fraction=0.99, granularity=1024))
        with pytest.raises(DeviceCrashError):
            wal.log(big, commit_txid=2)
        device.reboot()
        _, entries = WriteAheadLog.recover(file)
        assert [e.lsn for e in entries] \
            == list(range(1, max(2, sum(per_page[:k])) + 1)), f"write {k}"
        assert {e.txid for e in entries if e.kind == KIND_COMMIT} == {1}
        assert all(e.kind == KIND_RECORD for e in entries[2:])


# ------------------------ (c)(d) record-less commits that keep a marker

def _durable_db() -> Database:
    db = Database(EngineConfig(durability=True, page_size=512,
                               partition_buffer_bytes=4096,
                               buffer_pool_pages=64, manifest_slot_pages=6))
    db.create_table(TABLE, [("id", "int"), ("val", "str")])
    db.create_index(INDEX, TABLE, ["id"], kind="mvpbt", enable_gc=False)
    return db


def test_commit_after_mid_transaction_eviction_survives() -> None:
    """Index-only writes, then an eviction makes them partition-durable
    and empties the pending buffer: the commit has no record left to log
    but still owes its marker — the manifest lists it as in flight."""
    db = _durable_db()
    tree = db.catalog.index(INDEX).mvpbt
    txn = db.begin()
    for i in range(5):
        tree.insert(txn, (i,), RecordID(3, i), vid=i + 1)
    assert txn.writes == 0
    tree.evict_partition()
    assert not tree.has_pending_writes()
    appends = db.durability.wal.appends
    txn.commit()
    assert db.durability.wal.appends == appends + 1
    db.device.set_fault_plan(FaultPlan(fail_at=db.device.io_count))

    recovered = Database.recover(db)
    assert recovered.txn.status_of(txn.id) is TxnStatus.COMMITTED
    reader = recovered.begin()
    hits = recovered.catalog.index(INDEX).mvpbt.search(reader, (2,))
    assert [h.rid for h in hits] == [RecordID(3, 2)]


def test_commit_on_index_less_table_survives() -> None:
    db = _durable_db()
    db.create_table("bare", [("id", "int")])
    txn = db.begin()
    db.insert(txn, "bare", (1,))
    txn.commit()
    assert db.durability.wal.commit_markers == 1
    recovered = Database.recover(db)
    assert recovered.txn.status_of(txn.id) is TxnStatus.COMMITTED
    reader = recovered.begin()
    assert recovered.seq_scan(reader, "bare") == [(1,)]


# ------------------------------------------- (e) sector-aligned appends

def _note(wal: WriteAheadLog, nbytes: int) -> None:
    """Append one NOTE entry of exactly ``nbytes`` log bytes."""
    wal._append([(KIND_NOTE, bytes(nbytes - MIN_ENTRY_BYTES))])


def _wal_writes(db: Database) -> list[bool]:
    """For every traced write to the WAL file: was it sequential, i.e. did
    it start where the device's previous write ended?"""
    wal_file = db.wal_file
    wal_sectors = {lba for addr in wal_file._addresses.values()
                   for lba in range(addr // SECTOR_BYTES,
                                    (addr + wal_file.page_size)
                                    // SECTOR_BYTES)}
    out, last_end = [], -1
    for entry in db.trace.entries("W"):
        if entry.lba in wal_sectors:
            out.append(entry.lba == last_end)
        last_end = entry.end_lba
    return out


def test_two_kilobyte_commits_are_sequential_writes() -> None:
    """100 commits of ~2 KB each on one engine: every append closes on a
    sector boundary, so the next one continues the device's write stream
    (the mid-sector layout re-wrote the sector it started in: 0 %)."""
    db = Database(EngineConfig(durability=True))
    db.create_table(TABLE, [("id", "int"), ("val", "str")])
    db.create_index(INDEX, TABLE, ["id"], kind="mvpbt")
    wal = db.durability.wal
    db.trace.enable()
    written = wal.bytes_written
    for t in range(100):
        txn = db.begin()
        for i in range(32):
            db.insert(txn, TABLE, (32 * t + i, f"v{i}"))
        txn.commit()
    assert 1800 <= (wal.bytes_written - written) / 100 <= 2600
    sequential = _wal_writes(db)
    assert len(sequential) >= 100
    assert sum(sequential) >= 0.9 * len(sequential)


@pytest.mark.parametrize(("nbytes", "tail", "pad"), [
    (512, 512, 0),          # gap 0: the append ends on a boundary
    (256, 512, 256),        # gap == the append's bytes: padded
    (100, 100, 0),          # gap larger than the append: left packed
    (1012, 1536, 524),      # gap 12 < 15: padded one sector further
    (500, 500, 0),          # gap 12, but 524 B would outweigh the data
])
def test_pad_rule(nbytes: int, tail: int, pad: int) -> None:
    device, file, wal = _wal(8192)
    _note(wal, nbytes)
    assert (wal._tail_len, wal.pad_bytes) == (tail, pad)
    kinds = [kind for kind, _end in _entries(file, 0)]
    assert kinds == [KIND_NOTE] + [KIND_PAD] * (pad > 0)
    assert wal.bytes_written == -(-tail // SECTOR_BYTES) * SECTOR_BYTES
    # an aligned tail makes the next append continue the write stream
    before = device.stats.snapshot()
    _note(wal, 64)
    assert device.stats.delta(before).seq_writes == int(tail % SECTOR_BYTES
                                                        == 0)


def test_a_pad_that_would_cross_the_page_seals_the_tail() -> None:
    device, file, wal = _wal(1024)
    _note(wal, 1012)            # gap 12: a pad would need 524 more bytes
    assert wal.pad_bytes == 0
    assert wal._tail_no is None and [p[0] for p in wal._pages] == [0]
    before = device.stats.snapshot()
    _note(wal, 64)
    assert wal._tail_no == 1
    # page 1 starts where page 0's last sector ended
    assert device.stats.delta(before).seq_writes == 1
    _, entries = WriteAheadLog.recover(file)
    assert [e.lsn for e in entries] == [1, 2]


def test_a_marker_only_append_stays_packed() -> None:
    device, _file, wal = _wal(8192)
    _note(wal, 512)
    for txid in range(1, 31):
        wal.log([], commit_txid=txid)
    marker = MIN_ENTRY_BYTES + 8
    assert (wal._tail_len, wal.pad_bytes) == (512 + 30 * marker, 0)
    assert wal.bytes_written == device.stats.bytes_written


def test_replay_steps_over_pads_and_lsns_stay_contiguous() -> None:
    _device, file, wal = _wal(2048)
    sizes = [256, 700, 1012, 300, 40, 512]
    for size in sizes:
        _note(wal, size)
    pages = range(file.max_page_no)
    kinds = [kind for no in pages for kind, _end in _entries(file, no)]
    assert kinds.count(KIND_PAD) == 5 and wal.pad_bytes > 0
    assert all(entry.kind != KIND_PAD for no in pages
               for entry in parse_entries(bytes(file.peek(no))))
    recovered, entries = WriteAheadLog.recover(file)
    assert [e.lsn for e in entries] == list(range(1, len(sizes) + 1))
    assert [len(e.note) + MIN_ENTRY_BYTES for e in entries] == sizes
    assert recovered.end_lsn == wal.end_lsn


def test_a_torn_pad_keeps_the_entry_prefix() -> None:
    """The append's entries fill two sectors and its PAD the third; tear
    the request after two: every entry is durable, the PAD fails its CRC,
    and replay keeps the whole entry prefix."""
    device, file, wal = _wal(8192)
    _note(wal, 512)
    device.set_fault_plan(FaultPlan(fail_at=device.io_count, mode="torn",
                                    fraction=(2 * SECTOR_BYTES + 1)
                                    / (3 * SECTOR_BYTES)))
    with pytest.raises(DeviceCrashError):
        wal._append([(KIND_NOTE, bytes(482)), (KIND_NOTE, bytes(500))])
    device.reboot()
    # the PAD's header persisted, the rest of it and its CRC did not
    image = bytes(file.peek(0))
    assert len(image) == 512 + 2 * SECTOR_BYTES
    assert _HEAD.unpack_from(image, 512 + 1012)[2] == KIND_PAD
    recovered, entries = WriteAheadLog.recover(file)
    assert [len(e.note) + MIN_ENTRY_BYTES for e in entries] == [512, 497, 515]
    # the recovered log appends on a fresh page, LSNs running on
    _note(recovered, 64)
    _, entries = WriteAheadLog.recover(file)
    assert [e.lsn for e in entries] == [1, 2, 3, 4]
