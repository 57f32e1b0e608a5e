"""Crash-point sweep: kill the device at every I/O index, recover, compare.

The sweep drives the scripted harness workload (several evictions, a tiered
merge, aborts, key updates) under a :class:`FaultPlan` for every I/O index
``k`` and every fault mode, then recovers and asserts full recovery
equivalence against the oracle plus the recovery I/O-pattern invariant
(reads of manifest/WAL extents only).

By default each mode checks a sampled subset of crash points so the suite
stays fast; ``--run-crash-sweep`` makes the sweep exhaustive.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.errors import DeviceCrashError
from repro.sim.device import SECTOR_BYTES, FaultPlan
from repro.txn.status import TxnStatus

from .harness import (SCRIPT, apply_db_op, apply_oracle_op, assert_state_equal,
                      clean_io_count, recover_and_check, run_workload)

pytestmark = pytest.mark.crash

MODES = ("clean", "torn", "partial_extent")


@pytest.fixture(scope="module")
def sweep_domain() -> int:
    """I/O count of one fault-free workload run."""
    return clean_io_count()


def _crash_points(total: int, exhaustive: bool) -> list[int]:
    if exhaustive:
        return list(range(total))
    # quick mode: a coarse stride plus both edges still crosses WAL appends,
    # evictions, the merge and manifest flips
    points = sorted(set(range(0, total, 5)) | {1, total - 1})
    return [k for k in points if 0 <= k < total]


def test_workload_exercises_the_write_path(sweep_domain: int) -> None:
    """The sweep is only meaningful if the workload evicts and merges."""
    run = run_workload()
    tree = run.db.catalog.index("ix").mvpbt
    assert tree.stats.evictions >= 2
    assert tree.stats.merges >= 1
    assert run.db.durability.manifest.flips >= 3
    assert run.db.durability.wal.entries_appended > 50
    assert sweep_domain >= 30


@pytest.mark.parametrize("mode", MODES)
def test_crash_point_sweep(mode: str, sweep_domain: int,
                           run_crash_sweep: bool) -> None:
    """Crash at I/O index k, recover, assert oracle equivalence."""
    crashes = 0
    for k in _crash_points(sweep_domain, run_crash_sweep):
        run = run_workload(FaultPlan(fail_at=k, mode=mode))
        assert run.crashed, f"fail_at={k} < clean I/O count must crash"
        crashes += 1
        recover_and_check(run, context=f"mode={mode} k={k}")
    assert crashes > 0


#: the harness script behind 32 aborted read-only transactions: the
#: manifest lists every aborted txid (8 bytes each), which carries the
#: later flips past one 492-byte slot page — the filters live in each
#: partition's filter block, not in the manifest
GROWN_SCRIPT = [("abort", [("read", 0)])] * 32 + SCRIPT


def _grown_slot_flip_ios() -> tuple[int, list[int]]:
    """Of a fault-free run with one-page extents: its I/O count, and the
    I/O indices of every write of each manifest flip that reaches a
    slot's second extent."""
    run = run_workload(extent_pages=1, trace=True, script=GROWN_SCRIPT)
    entries = run.db.trace.entries()
    assert len(entries) == run.db.device.io_count   # index == I/O index
    page_at = {address // SECTOR_BYTES: page_no for page_no, address
               in run.db.manifest_file._addresses.items()}
    flips: list[list[tuple[int, int]]] = []         # (I/O index, page)
    for index, entry in enumerate(entries):
        page_no = page_at.get(entry.lba)
        if entry.kind != "W" or page_no is None:
            continue
        if not flips or flips[-1][-1][0] != index - 1:
            flips.append([])
        flips[-1].append((index, page_no))
    # slot pages 0 and 1 sit in the slots' first extents (file pages 0-1)
    return len(entries), [index for flip in flips
                          if max(page for _, page in flip) >= 2
                          for index, _ in flip]


@pytest.mark.parametrize("mode", MODES)
def test_crash_sweep_through_grown_manifest_extents(
        mode: str, run_crash_sweep: bool) -> None:
    """With one-page extents every two-page flip writes into a freshly
    grown extent of its slot: kill at every I/O of those flips (at every
    I/O of the run with ``--run-crash-sweep``), recover, compare."""
    domain, targets = _grown_slot_flip_ios()
    assert len(targets) >= 4          # two flips of two pages each
    if run_crash_sweep:
        targets = list(range(domain))
    for k in targets:
        run = run_workload(FaultPlan(fail_at=k, mode=mode), extent_pages=1,
                           script=GROWN_SCRIPT)
        assert run.crashed, f"fail_at={k} < clean I/O count must crash"
        recover_and_check(run, context=f"1-page extents mode={mode} k={k}")


def test_crash_beyond_workload_never_fires(sweep_domain: int) -> None:
    run = run_workload(FaultPlan(fail_at=sweep_domain + 10))
    assert not run.crashed
    assert run.db.device.io_count == sweep_domain


def test_torn_fraction_sweep(sweep_domain: int) -> None:
    """Different torn prefixes of the same interrupted write all recover."""
    k = sweep_domain // 2
    for fraction in (0.0, 0.25, 0.5, 0.75, 0.99):
        run = run_workload(FaultPlan(fail_at=k, mode="torn",
                                     fraction=fraction))
        assert run.crashed
        recover_and_check(run, context=f"torn fraction={fraction} k={k}")


def test_double_crash_during_recovery(sweep_domain: int) -> None:
    """A crash *during* recovery's read pass is itself recoverable."""
    from repro.durability.recovery import read_durable_state

    run = run_workload(FaultPlan(fail_at=sweep_domain * 2 // 3))
    assert run.crashed
    # recovery reads the manifest slots first; kill the second read
    run.db.device.reboot()
    run.db.device.set_fault_plan(
        FaultPlan(fail_at=run.db.device.io_count + 1))
    with pytest.raises(DeviceCrashError):
        read_durable_state(run.db.manifest_file, run.db.wal_file,
                           run.db.config.manifest_slot_pages)
    # the aborted read pass wrote nothing, so a full recovery attempt
    # (which reboots again) starts from the same durable state
    recover_and_check(run, context="second recovery attempt")


def test_recovery_reads_are_sequential_dominated(sweep_domain: int) -> None:
    """Recovery touches the device with reads only, reads no sector twice,
    and — counted in bytes, not requests — reads at least as much in
    address-contiguous streams longer than a page (one run request, or
    back-to-back requests) as in one-page probes."""
    run = run_workload(FaultPlan(fail_at=sweep_domain - 1))
    assert run.crashed
    recover_and_check(run, context="trace run")    # traces recovery's I/O
    reads = run.db.trace.entries()
    assert reads and all(entry.kind == "R" for entry in reads)
    sectors = [lba for entry in reads
               for lba in range(entry.lba, entry.end_lba)]
    assert len(sectors) == len(set(sectors))
    streams: list[int] = []                       # sectors per stream
    last_end = -1
    for entry in reads:
        if entry.lba == last_end:
            streams[-1] += entry.sectors
        else:
            streams.append(entry.sectors)
        last_end = entry.end_lba
    page = run.db.config.page_size // SECTOR_BYTES
    streamed = sum(n for n in streams if n > page)
    assert streamed > 0
    assert streamed >= sum(streams) - streamed


def test_crashed_device_stays_dead_until_reboot(sweep_domain: int) -> None:
    run = run_workload(FaultPlan(fail_at=5))
    assert run.crashed
    with pytest.raises(DeviceCrashError):
        run.db.device.read(0, 512)
    with pytest.raises(DeviceCrashError):
        run.db.device.write(0, 512)
    run.db.device.reboot()
    run.db.device.read(0, 512)  # alive again


def test_recovered_database_keeps_working(sweep_domain: int) -> None:
    """Post-recovery, the database accepts the rest of the workload."""
    k = sweep_domain // 2
    run = run_workload(FaultPlan(fail_at=k))
    assert run.crashed
    db = recover_and_check(run, context=f"continue k={k}")

    # replay the not-yet-committed suffix of the script from scratch on the
    # oracle side: recompute which keys are live, then run fresh txns
    if run.inflight_txid is not None and (
            db.txn.status_of(run.inflight_txid) is TxnStatus.COMMITTED):
        state = dict(run.inflight_state)
    else:
        state = dict(run.final)
    done = len(run.history)
    commits = [ops for outcome, ops in SCRIPT if outcome == "commit"]
    for ops in commits[done:]:
        txn = db.begin()
        # an op may be illegal against the recovered state (e.g. the
        # in-flight txn already inserted the key); skip those txns
        replayable = True
        probe = dict(state)
        try:
            for op in ops:
                apply_oracle_op(probe, op)
        except AssertionError:
            replayable = False
        if not replayable:
            txn.abort()
            continue
        for op in ops:
            apply_db_op(db, txn, op)
            apply_oracle_op(state, op)
        txn.commit()
        assert_state_equal(db, txn.id, state,
                           context=f"post-recovery txid={txn.id}")

    # and it survives a second crash + recovery
    db.device.set_fault_plan(FaultPlan(fail_at=db.device.io_count + 3,
                                       mode="torn"))
    txn = db.begin()
    with pytest.raises(DeviceCrashError):
        for i in range(200, 260):
            apply_db_op(db, txn, ("insert", i, f"z{i}"))
        txn.commit()
    db2 = Database.recover(db)
    assert_state_equal(db2, db2.txn.next_txid - 1, state,
                       context="after second crash")
