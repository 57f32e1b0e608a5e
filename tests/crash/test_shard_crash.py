"""Cross-shard crash sweeps: kill any ONE device, recover the topology,
assert all-shards-or-no-shards visibility (DESIGN.md §16.5).

The scripted harness workload (same ops as the single-node sweep) runs
through a :class:`ShardedDatabase`, so transactions routinely touch
several shards — every ``move`` and most multi-insert transactions are
cross-shard and take the two-phase marker flow, whose commit point is the
last touched shard's commit append.  A
:class:`~repro.sim.device.FaultPlan` kills one shard's device at a chosen
I/O index (the coordinator's device writes nothing while the workload
runs); the sweep then recovers ALL shards plus the coordinator and
asserts:

* **atomicity** — every transaction recovers with the SAME status on
  every shard (a cross-shard commit is visible everywhere or nowhere);
* **oracle equivalence at every horizon** — each historical per-commit
  snapshot answers point lookups and the merged full scan exactly like
  the plain-Python oracle;
* **recovery I/O pattern** — recovery only READS, and only manifest/WAL
  extents (every shard's partition leaves re-attach unread — the paper's
  zero-leaf-read recovery claim, preserved under sharding).

Two more sweeps kill a device inside a rebalance (§16.4) and through a
two-table bulk load whose slot placement rebalances (§16.1).
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import DeviceCrashError, WriteConflictError
from repro.shard import (HashPartitioner, ShardConfig, ShardedDatabase,
                         ShardTransaction)
from repro.sim.device import FaultPlan
from repro.txn.snapshot import Snapshot
from repro.txn.status import TxnStatus
from repro.txn.transaction import Transaction

from ..reference_scan import reference_scan
from ..unit.test_shard_router import ITEMS, STOCK, make_stock_router
from .harness import (KEY_UNIVERSE, SCRIPT, OracleState, apply_oracle_op,
                      wal_manifest_sectors)

pytestmark = [pytest.mark.crash, pytest.mark.shard]

TABLE = "t"
INDEX = "ix"
SHARDS = 2


def make_sharded() -> ShardedDatabase:
    """A durable 2-shard router sized to evict and merge constantly."""
    config = EngineConfig(
        durability=True,
        page_size=512,
        extent_pages=8,
        partition_buffer_bytes=768,
        buffer_pool_pages=64,
        manifest_slot_pages=6,
    )
    sdb = ShardedDatabase(config, ShardConfig(shards=SHARDS, hash_slots=16))
    sdb.create_table(TABLE, [("id", "int"), ("val", "str")], "sias")
    sdb.create_index(INDEX, TABLE, ["id"], kind="mvpbt",
                     enable_gc=False, max_partitions=2, merge_fanout=2)
    return sdb


def apply_router_op(sdb: ShardedDatabase, txn: ShardTransaction,
                    op: tuple) -> None:
    kind = op[0]
    if kind == "insert":
        sdb.insert(txn, TABLE, (op[1], op[2]))
    elif kind == "update":
        sdb.update_by_key(txn, INDEX, (op[1],), {"val": op[2]})
    elif kind == "move":
        sdb.update_by_key(txn, INDEX, (op[1],), {"id": op[2]})
    elif kind == "delete":
        sdb.delete_by_key(txn, INDEX, (op[1],))
    else:
        raise ValueError(f"unknown op {op!r}")


class ShardedRun:
    """One (possibly crashed) sharded workload run + its oracle."""

    def __init__(self, sdb: ShardedDatabase,
                 history: list[tuple[int, OracleState]],
                 final: OracleState, crashed: bool,
                 inflight_txid: int | None,
                 inflight_state: OracleState | None) -> None:
        self.sdb = sdb
        self.history = history
        self.final = final
        self.crashed = crashed
        self.inflight_txid = inflight_txid
        self.inflight_state = inflight_state


def run_sharded(target: str | None = None,
                plan: FaultPlan | None = None) -> ShardedRun:
    """Run the scripted workload; ``target`` names the device under the
    fault plan: ``"shard0"``/``"shard1"``... or ``"coord"``."""
    sdb = make_sharded()
    if plan is not None:
        assert target is not None
        if target == "coord":
            assert sdb.coordinator_device is not None
            sdb.coordinator_device.set_fault_plan(plan)
        else:
            sdb.shards[int(target.removeprefix("shard"))].device \
                .set_fault_plan(plan)
    live: OracleState = {}
    history: list[tuple[int, OracleState]] = []
    for outcome, ops in SCRIPT:
        txn = sdb.begin()
        pending = dict(live)
        try:
            for op in ops:
                apply_router_op(sdb, txn, op)
                apply_oracle_op(pending, op)
        except DeviceCrashError:
            return ShardedRun(sdb, history, live, True, None, None)
        if outcome == "abort":
            txn.abort()
            continue
        try:
            txn.commit()
        except DeviceCrashError:
            return ShardedRun(sdb, history, live, True, txn.id, pending)
        live = pending
        history.append((txn.id, dict(live)))
    return ShardedRun(sdb, history, live, False, None, None)


# ------------------------------------------------------------- equivalence

def horizon_stxn(sdb: ShardedDatabase, horizon_txid: int
                 ) -> ShardTransaction:
    """A synthetic read-only global transaction at one snapshot horizon."""
    snap = Snapshot(owner=0, xmax=horizon_txid + 1, active=frozenset(),
                    xmin=horizon_txid + 1)
    txn = ShardTransaction(0, snap, sdb)
    txn.members.update((k, Transaction(0, snap, db.txn))
                       for k, db in enumerate(sdb.shards))
    return txn


def assert_sharded_state(sdb: ShardedDatabase, horizon_txid: int,
                         expect: OracleState, context: str = "") -> None:
    txn = horizon_stxn(sdb, horizon_txid)
    for key in KEY_UNIVERSE:
        got = sorted(sdb.select(txn, INDEX, (key,)))
        want = [(key, expect[key])] if key in expect else []
        assert got == want, (
            f"{context}: key {key} at horizon {horizon_txid}: "
            f"got {got}, want {want}")
    got_all = sorted(sdb.range_select(txn, INDEX, None, None))
    want_all = sorted((k, v) for k, v in expect.items())
    assert got_all == want_all, (
        f"{context}: full scan at horizon {horizon_txid}: "
        f"got {len(got_all)} rows, want {len(want_all)}")


def coordinator_sectors(sdb: ShardedDatabase) -> set[int]:
    sectors: set[int] = set()
    assert sdb.coordinator_file is not None
    for addr in sdb.coordinator_file._addresses.values():
        base = addr // 512
        sectors.update(range(base, base + sdb.coordinator_file.page_size
                             // 512))
    return sectors


def recover_and_check_sharded(run: ShardedRun,
                              context: str = "") -> ShardedDatabase:
    """Recover the whole topology and assert the §16.5 invariants."""
    sdb = run.sdb
    traces = [db.trace for db in sdb.shards] + [sdb.trace]
    for trace in traces:
        trace.clear()
        trace.enable()
    recovered = ShardedDatabase.recover(sdb)
    for trace in traces:
        trace.disable()

    # recovery I/O: reads only, confined to manifest/WAL (+ coordinator
    # log) extents, and no sector read twice — no shard's partition leaves
    # are read, and no shard's durable state is read a second time
    for k, db in enumerate(recovered.shards):
        allowed = wal_manifest_sectors(db)
        sectors: list[int] = []
        for entry in db.trace.entries():
            assert entry.kind == "R", (
                f"{context}: shard {k} recovery wrote LBA {entry.lba}")
            covered = all(lba in allowed
                          for lba in range(entry.lba, entry.end_lba))
            assert covered, (
                f"{context}: shard {k} recovery read outside manifest/WAL "
                f"extents (LBA {entry.lba}..{entry.end_lba})")
            sectors.extend(range(entry.lba, entry.end_lba))
        assert len(sectors) == len(set(sectors)), (
            f"{context}: shard {k} recovery read a sector twice")
    coord_allowed = coordinator_sectors(recovered)
    for entry in recovered.trace.entries():
        assert entry.kind == "R", (
            f"{context}: coordinator recovery wrote LBA {entry.lba}")
        assert all(lba in coord_allowed
                   for lba in range(entry.lba, entry.end_lba)), (
            f"{context}: coordinator recovery read outside its log")

    # atomicity: every historical transaction has ONE status, identical on
    # every shard — all shards or no shards
    check_txids = [txid for txid, _state in run.history]
    if run.inflight_txid is not None:
        check_txids.append(run.inflight_txid)
    for txid in check_txids:
        statuses = {db.txn.status_of(txid) for db in recovered.shards}
        assert len(statuses) == 1, (
            f"{context}: txn {txid} recovered with split statuses "
            f"{statuses} — partial cross-shard visibility")
        assert statuses <= {TxnStatus.COMMITTED, TxnStatus.ABORTED}, (
            f"{context}: txn {txid} undecided after recovery")
    for txid, _state in run.history:
        assert recovered.shards[0].txn.status_of(txid) \
            is TxnStatus.COMMITTED, (
            f"{context}: fully-acknowledged txn {txid} lost")

    # oracle equivalence at every historical commit horizon
    for txid, state in run.history:
        assert_sharded_state(recovered, txid, state,
                             context=f"{context} horizon txid={txid}")

    final = run.final
    if run.inflight_txid is not None:
        if (recovered.shards[0].txn.status_of(run.inflight_txid)
                is TxnStatus.COMMITTED):
            assert run.inflight_state is not None
            final = run.inflight_state
    horizon = max(db.txn.next_txid for db in recovered.shards) - 1
    assert_sharded_state(recovered, horizon, final,
                         context=f"{context} final horizon")
    return recovered


# ------------------------------------------------------------------ sweeps

def _coordinator_io(sdb: ShardedDatabase) -> int:
    assert sdb.coordinator_device is not None
    return sdb.coordinator_device.io_count


@pytest.fixture(scope="module")
def clean_counts() -> dict[str, int]:
    """Per-device I/O counts of one fault-free sharded run (the
    coordinator's without the layout NOTE its construction writes)."""
    run = run_sharded()
    assert not run.crashed
    counts = {f"shard{k}": db.device.io_count
              for k, db in enumerate(run.sdb.shards)}
    counts["coord"] = (_coordinator_io(run.sdb)
                       - _coordinator_io(make_sharded()))
    return counts


def _crash_points(total: int, exhaustive: bool) -> list[int]:
    if exhaustive:
        return list(range(total))
    points = sorted(set(range(0, total, 7)) | {1, total - 1})
    return [k for k in points if 0 <= k < total]


def test_workload_is_cross_shard(clean_counts: dict[str, int]) -> None:
    """The sweep only means something if 2PC commits actually happen."""
    run = run_sharded()
    assert len(run.sdb.coordinator.decisions) >= 5, (
        "script produced too few cross-shard commits")
    for k in range(SHARDS):
        assert clean_counts[f"shard{k}"] > 10, "a shard sat idle"
    # the decisions are the last agents' commit appends, on the shards
    assert clean_counts["coord"] == 0, "the coordinator wrote a decision"


@pytest.mark.parametrize("target", ["shard0", "shard1"])
def test_shard_crash_sweep(target: str, clean_counts: dict[str, int],
                           run_crash_sweep: bool) -> None:
    """Kill one device at I/O index k; recover; assert atomicity."""
    total = clean_counts[target]
    crashes = 0
    for k in _crash_points(total, run_crash_sweep):
        run = run_sharded(target, FaultPlan(fail_at=k))
        assert run.crashed, f"{target} fail_at={k} must crash"
        crashes += 1
        recover_and_check_sharded(run, context=f"{target} k={k}")
    assert crashes > 0


def test_coordinator_is_silent_during_the_workload() -> None:
    """A coordinator device armed to die at its next I/O never fires: no
    commit, single- or multi-shard, writes to it, and the run recovers."""
    armed = _coordinator_io(make_sharded())
    run = run_sharded("coord", FaultPlan(fail_at=armed))
    assert not run.crashed
    assert len(run.sdb.coordinator.decisions) >= 5
    assert _coordinator_io(run.sdb) == armed
    recover_and_check_sharded(run, context="coordinator silent")


def test_torn_shard_writes_recover(clean_counts: dict[str, int]) -> None:
    k = clean_counts["shard1"] // 2
    for fraction in (0.0, 0.5, 0.99):
        run = run_sharded("shard1", FaultPlan(fail_at=k, mode="torn",
                                              fraction=fraction))
        assert run.crashed
        recover_and_check_sharded(run, context=f"torn f={fraction} k={k}")


def test_crash_beyond_workload_never_fires(
        clean_counts: dict[str, int]) -> None:
    target = "shard0"
    run = run_sharded(target,
                      FaultPlan(fail_at=clean_counts[target] + 10))
    assert not run.crashed
    assert run.sdb.shards[0].device.io_count == clean_counts[target]


def test_recovered_router_keeps_working(
        clean_counts: dict[str, int]) -> None:
    """Post-recovery the router accepts new cross-shard transactions."""
    run = run_sharded("shard0",
                      FaultPlan(fail_at=clean_counts["shard0"] // 2))
    assert run.crashed
    recovered = recover_and_check_sharded(run, context="continue")
    state = dict(run.final)
    if run.inflight_txid is not None and (
            recovered.shards[0].txn.status_of(run.inflight_txid)
            is TxnStatus.COMMITTED):
        assert run.inflight_state is not None
        state = dict(run.inflight_state)
    txn = recovered.begin()
    for i in range(200, 230):
        recovered.insert(txn, TABLE, (i, f"z{i}"))
        state[i] = f"z{i}"
    txn.commit()
    assert len(txn.touched) > 1, "fresh inserts should span shards"
    assert_sharded_state(recovered, txn.id, state, context="post-recovery")


# ------------------------------------------ the last agent's commit point

def _cross_shard_commit(sdb: ShardedDatabase,
                        rows: int = 12) -> tuple[int, OracleState]:
    txn = sdb.begin()
    state: OracleState = {}
    for i in range(rows):
        sdb.insert(txn, TABLE, (i, f"v{i}"))
        state[i] = f"v{i}"
    txn.commit()
    assert len(txn.touched) == SHARDS
    return txn.id, state


def _owned_by(sdb: ShardedDatabase, shard: int, keys: range) -> int:
    return next(k for k in keys if sdb.partitioner.shard_of((k,)) == shard)


def test_cross_shard_commit_is_prepares_plus_one_decision() -> None:
    """A 2PC commit costs one append per touched shard: a PREPARE on every
    shard but the last, and the last one's commit append, which carries
    the decision as its COMMIT marker.  The coordinator writes nothing,
    and the prepared shard's marker is staged to ride on its next append."""
    sdb = make_sharded()
    assert sdb.coordinator.log is not None
    wals = [db.durability.wal for db in sdb.shards]
    appends = [wal.appends for wal in wals]
    markers = [wal.commit_markers for wal in wals]
    coord_appends = sdb.coordinator.log.appends
    txid, _state = _cross_shard_commit(sdb)
    assert txid in sdb.coordinator.decisions
    assert [wal.appends - before
            for wal, before in zip(wals, appends)] == [1] * SHARDS
    assert sdb.coordinator.log.appends == coord_appends
    # shard 1, the last touched, wrote the decision; shard 0 prepared
    assert [wal.commit_markers - before
            for wal, before in zip(wals, markers)] == [0, 1]
    assert [wal._staged for wal in wals] == [[txid], []]

    follow = sdb.begin()
    sdb.insert(follow, TABLE, (_owned_by(sdb, 0, range(50, 100)), "w"))
    follow.commit()
    assert follow.touched == {0}
    assert wals[0]._staged == [] and wals[0].appends == appends[0] + 2
    assert wals[0].commit_markers == markers[0] + 2


@pytest.mark.parametrize("target", ["shard0", "shard1", "coord"])
def test_kill_after_decision_before_marker_rides(target: str) -> None:
    """The last agent's append returned, the prepared shard's phase-two
    marker is still in memory, one device dies at its next I/O (the
    coordinator's never does): the last agent's marker alone must recover
    the transaction committed on every shard."""
    sdb = make_sharded()
    txid, state = _cross_shard_commit(sdb)
    assert sdb.shards[0].durability.wal._staged == [txid]
    device = (sdb.coordinator_device if target == "coord"
              else sdb.shards[int(target.removeprefix("shard"))].device)
    assert device is not None
    device.set_fault_plan(FaultPlan(fail_at=device.io_count))

    history = [(txid, dict(state))]
    inflight: tuple[int | None, OracleState | None] = (None, None)
    for key in (50, 51, 52, 53):        # single-shard commits on both shards
        follow = sdb.begin()
        pending = {**state, key: "w"}
        try:
            sdb.insert(follow, TABLE, (key, "w"))
            follow.commit()
        except DeviceCrashError:
            inflight = (follow.id, pending)
            break
        state = pending
        history.append((follow.id, dict(state)))
    assert (inflight[0] is None) == (target == "coord")
    run = ShardedRun(sdb, history, state, True, *inflight)
    recovered = recover_and_check_sharded(run, context=f"staged {target}")
    assert all(db.txn.status_of(txid) is TxnStatus.COMMITTED
               for db in recovered.shards)


@pytest.mark.parametrize("k", [0, 1])
def test_kill_at_the_last_agents_append_aborts_everywhere(k: int) -> None:
    """Shard 0 prepared; shard 1's commit append is two page writes.  A
    kill at its first (k=0: after the last PREPARE, before the decision)
    or at its second (k=1: a torn append whose first page, records only,
    is durable and whose COMMIT marker is not) leaves no decision on any
    shard: the transaction recovers aborted everywhere, the durable
    prepared slice included."""
    twin = make_sharded()
    io = twin.shards[1].device.io_count
    _cross_shard_commit(twin, rows=24)
    assert twin.shards[1].device.io_count - io == 2

    sdb = make_sharded()
    txn = sdb.begin()
    for i in range(24):
        sdb.insert(txn, TABLE, (i, f"v{i}"))
    assert txn.touched == {0, 1}
    prepares = sdb.shards[0].durability.wal.appends
    device = sdb.shards[1].device
    device.set_fault_plan(FaultPlan(fail_at=device.io_count + k))
    with pytest.raises(DeviceCrashError):
        txn.commit()
    assert sdb.shards[0].durability.wal.appends == prepares + 1
    run = ShardedRun(sdb, [], {}, True, txn.id, None)
    recovered = recover_and_check_sharded(run, context=f"agent k={k}")
    assert all(db.txn.status_of(txn.id) is TxnStatus.ABORTED
               for db in recovered.shards)


def test_last_agent_that_wrote_nothing_still_decides() -> None:
    """The last touched shard's statement raised after ``txn.touch`` and
    before writing (a write conflict), so its member wrote nothing — an
    ordinary commit would elide its append.  As the last agent it still
    appends its COMMIT marker, the decision for shard 0's PREPARE, and the
    transaction recovers committed on every shard."""
    sdb = make_sharded()
    key0 = _owned_by(sdb, 0, range(100))
    key1 = _owned_by(sdb, 1, range(100))
    setup = sdb.begin()
    sdb.insert(setup, TABLE, (key1, "a"))
    setup.commit()
    txn = sdb.begin()
    [(shard, hit)] = sdb.select_hits_tagged(txn, INDEX, (key1,))
    rival = sdb.begin()
    sdb.update_by_key(rival, INDEX, (key1,), {"val": "b"})
    rival.commit()
    with pytest.raises(WriteConflictError):
        sdb.update_hit(txn, TABLE, shard, hit, {"val": "c"})
    sdb.insert(txn, TABLE, (key0, "x"))
    assert txn.touched == {0, 1}
    agent = sdb.shards[1].durability
    assert agent is not None and agent.wrote_nothing(txn.on(1))
    markers = agent.wal.commit_markers
    txn.commit()
    assert agent.wal.commit_markers == markers + 1
    final = {key1: "b", key0: "x"}
    # a horizon is a txid cut-off: txn (older id) is seen before rival
    history = [(setup.id, {key1: "a"}), (txn.id, {key1: "a", key0: "x"}),
               (rival.id, dict(final))]
    run = ShardedRun(sdb, history, final, True, None, None)
    recover_and_check_sharded(run, context="agent wrote nothing")


def test_single_shard_recovery_needs_the_decision() -> None:
    """The prepared shard recovered on its own sees PREPARE without
    COMMIT: the outcome is the last agent's to give (folded into
    ``durable``), and that shard alone recovers it committed."""
    sdb = make_sharded()
    txid, _state = _cross_shard_commit(sdb)
    alone = Database.recover(sdb.shards[0])
    assert alone.txn.status_of(txid) is TxnStatus.ABORTED
    agent = Database.recover(sdb.shards[1])
    assert agent.txn.status_of(txid) is TxnStatus.COMMITTED
    durable = sdb.shards[0].reboot_and_read()
    decided = sdb.shards[1].reboot_and_read().committed
    told = Database.recover(sdb.shards[0], durable=durable._replace(
        committed=durable.committed | decided))
    assert told.txn.status_of(txid) is TxnStatus.COMMITTED
    whole = ShardedDatabase.recover(sdb)
    assert whole.shards[0].txn.status_of(txid) is TxnStatus.COMMITTED


# ------------------------------------------------------- rebalance crashes

def _low_keys_to_shard1(sdb: ShardedDatabase) -> HashPartitioner:
    """The layout that gives shard 1 every slot owning a key in 0-29."""
    layout = sdb.partitioner
    for key in range(30):
        layout = layout.move_slot(layout.slot_of((key,)), 1)
    return layout


def test_completed_rebalance_survives_a_crash() -> None:
    """A crash after a rebalance's layout flip recovers the new layout
    and every historical horizon, now read from the new owners."""
    run = run_sharded()
    assert not run.crashed
    layout = _low_keys_to_shard1(run.sdb)
    run.sdb.rebalance(layout)
    recovered = recover_and_check_sharded(run, context="after rebalance")
    assert recovered.partitioner.to_state() == layout.to_state()


def test_rebalance_crash_sweep(run_crash_sweep: bool) -> None:
    """Kill a shard device at every sampled I/O index DURING a rebalance:
    every window recovers to the exact pre-rebalance contents (the layout
    flip decides which copies are authoritative; none are ever lost)."""
    base = run_sharded()
    assert not base.crashed

    def io_now(sdb: ShardedDatabase) -> list[int]:
        return [db.device.io_count for db in sdb.shards]

    # measure a clean rebalance's extra I/O per shard
    probe = run_sharded()
    before = io_now(probe.sdb)
    probe.sdb.rebalance(_low_keys_to_shard1(probe.sdb))
    deltas = [after - b
              for after, b in zip(io_now(probe.sdb), before)]
    assert max(deltas) > 0, "rebalance did no I/O?"

    target = max(range(SHARDS), key=lambda k: deltas[k])
    points = _crash_points(deltas[target], run_crash_sweep)
    for k in points:
        run = run_sharded()
        sdb = run.sdb
        sdb.shards[target].device.set_fault_plan(
            FaultPlan(fail_at=sdb.shards[target].device.io_count + k))
        try:
            sdb.rebalance(_low_keys_to_shard1(sdb))
        except DeviceCrashError:
            pass
        crashed_run = ShardedRun(sdb, run.history, run.final, True,
                                 None, None)
        recover_and_check_sharded(crashed_run,
                                  context=f"rebalance k={k}")


# ---------------------------------------------------- load placement crashes

#: (table, index, rows) in load order: the stock load moves the slot of a
#: warehouse that shares its round-robin shard with another
LOADS = (("item", "ix_item", ITEMS), ("stock", "ix_stock", STOCK))


def make_stock_sharded() -> ShardedDatabase:
    """The placement tests' durable 4-shard router, sized to evict and
    merge."""
    return make_stock_router(config=EngineConfig(
        durability=True, page_size=512, extent_pages=8,
        partition_buffer_bytes=768, buffer_pool_pages=64,
        manifest_slot_pages=6))


def _devices(sdb: ShardedDatabase) -> list:
    return [db.device for db in sdb.shards] + [sdb.coordinator_device]


def test_load_placement_crash_sweep(run_crash_sweep: bool) -> None:
    """Kill each device at every sampled I/O of the two-table load — the
    placing rebalance included: every window recovers to the layout
    before or after the load that crashed, each loaded row at most once
    (a shard's slice of a table commits whole or not at all, and every
    finished load is whole), and every recovered tree's scan agrees with
    the record-at-a-time reference."""
    clean = make_stock_sharded()
    starts = [device.io_count for device in _devices(clean)]
    layouts = [clean.partitioner.to_state()]
    for table, _index, rows in LOADS:
        clean.bulk_load(table, rows)
        layouts.append(clean.partitioner.to_state())
    assert layouts[2] != layouts[1], "the stock load must re-place"
    spans = [device.io_count - start
             for device, start in zip(_devices(clean), starts)]

    for target, (start, span) in enumerate(zip(starts, spans)):
        for k in _crash_points(span, run_crash_sweep):
            sdb = make_stock_sharded()
            _devices(sdb)[target].set_fault_plan(
                FaultPlan(fail_at=start + k))
            done = 0
            with pytest.raises(DeviceCrashError):
                for table, _index, rows in LOADS:
                    sdb.bulk_load(table, rows)
                    done += 1
            _check_recovered_load(ShardedDatabase.recover(sdb), done,
                                  layouts, context=f"device {target} k={k}")


def _check_recovered_load(sdb: ShardedDatabase, done: int,
                          layouts: list[dict], context: str) -> None:
    layout = sdb.partitioner.to_state()
    assert layout in layouts[done:done + 2], (
        f"{context}: recovered a layout no load installed")
    txn = sdb.begin()
    for n, (table, index, rows) in enumerate(LOADS):
        got = sdb.range_select(txn, index, None, None)
        assert got == sorted(set(got)), f"{context}: {table} row twice"
        assert sorted(sdb.seq_scan(txn, table)) == got, context
        assert set(got) <= set(rows), f"{context}: {table} foreign row"
        if n < done:
            assert got == rows, f"{context}: finished {table} load lost"
        # both tables' shard key is their first column
        for k in range(len(sdb.shards)):
            owned, mine = ([row for row in have
                            if sdb.partitioner.shard_of(row[:1]) == k]
                           for have in (rows, got))
            assert mine in ([], owned), (
                f"{context}: shard {k} holds part of its {table} slice")
    for k, db in enumerate(sdb.shards):
        for info in db.catalog.indexes:
            assert info.mvpbt.range_scan(txn.on(k), None, None) == \
                reference_scan(info.mvpbt, txn.on(k)), (
                    f"{context}: shard {k} {info.name} scan")
    sdb.commit(txn)
