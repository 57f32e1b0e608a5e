"""Crash coverage for the commit path's three I/O rules (DESIGN.md
§11.2, §11.3, §16.3): a commit that wrote nothing does no WAL I/O, a tail
append writes only the sectors it changed and never straddles a page when
it fits one, and a 2PC phase-two marker is staged instead of written.

Each test either pins an I/O count the whole-page / marker-per-commit
design could not meet, or reaches a state it did not have (an elided
commit, a torn *ranged* write, a staged-but-unwritten marker).
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.durability.controller import HORIZON_STRIDE
from repro.durability.wal import (_CRC, _HEAD, KIND_COMMIT, KIND_RECORD,
                                  WriteAheadLog)
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


def _entry_ends(file: PageFile, page_no: int) -> list[int]:
    """End offset of every entry in one log page, in order."""
    data = bytes(file.peek(page_no))
    ends, pos = [], 0
    while pos + _HEAD.size + _CRC.size <= len(data):
        plen, _lsn, _kind = _HEAD.unpack_from(data, pos)
        pos += _HEAD.size + plen + _CRC.size
        ends.append(pos)
    return ends


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
    """Tear one multi-sector tail append after each whole number of
    sectors: the acknowledged prefix always survives intact and exactly
    the entries that fit inside the persisted sectors join it."""
    def build() -> tuple[SimulatedDevice, PageFile, WriteAheadLog]:
        device, file, wal = _wal(8192)
        for i in range(3):                   # acknowledged, ends mid-sector
            wal.log([("ix", rec(i, i + 1, i))], commit_txid=i + 1)
        return device, file, wal

    big = [("ix", rec(100 + i, 9, 10 + i)) for i in range(40)]
    device, file, wal = build()
    acked = wal.end_lsn - 1
    offset = wal._tail_len
    assert offset % SECTOR_BYTES, "the delta must start mid-sector"
    wal.log(big, commit_txid=9)
    ends = _entry_ends(file, 0)
    start = offset - offset % SECTOR_BYTES
    request = -(-ends[-1] // SECTOR_BYTES) * SECTOR_BYTES - start
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
        _, entries = WriteAheadLog.recover(file)
        durable_end = start + persisted_sectors * SECTOR_BYTES
        want = sum(1 for end in ends if end <= max(durable_end, offset))
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
