"""The ``P_N`` checkpoint (DESIGN.md §11.3): crash sweeps over it, and the
long run it exists for.

An index whose ``P_N`` never evicts — here ``iw``, two rows of a
warehouse-like table that a few transactions update — used to hold its WAL
floor where it registered, so every log page since stayed live and replay
brought back every version GC had purged from its ``P_N``.  Once the live
sealed log outgrows ``CHECKPOINT_BUFFERS`` partition buffers, a checkpoint
images every ``P_N`` into one append, moves every floor to it, flips and
truncates.

The sweeps kill the device at every I/O of a checkpoint — the image append
and the manifest flip — in clean and torn mode, on a 3-index ``Database``
(direct and through a served single node's group commit) and on a served
2-shard router, then recover and compare every historical snapshot with
the oracle.  A crash between the image and the flip replays both copies
of each imaged record above the old floor; hit lists are compared, not
sets, so a record replayed twice fails the check.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import pytest

from repro.config import EngineConfig
from repro.durability import controller as controller_module
from repro.durability.controller import CHECKPOINT_BUFFERS
from repro.durability.wal import WriteAheadLog
from repro.engine.database import Database
from repro.errors import DeviceCrashError
from repro.obs import ObsConfig
from repro.shard import ShardConfig, ShardedDatabase
from repro.sim.device import FaultPlan
from repro.txn.status import TxnStatus

from .harness import (INDEX, TABLE, Op, OracleState, WorkloadRun,
                      apply_oracle_op, horizon_txn, recover_and_check)
from .test_shard_crash import (ShardedRun, horizon_stxn,
                               recover_and_check_sharded)

pytestmark = pytest.mark.crash

SMALL_TABLE = "w"
SMALL = "iw"
WAREHOUSES = (0, 1)

#: (committed t rows, committed w ytd per warehouse)
State = tuple[OracleState, dict[int, int]]


def add_small_index(engine: Any) -> None:
    """The warehouse-like table whose index never evicts, loaded with one
    row per warehouse (a Database or a router: same DDL and DML)."""
    engine.create_table(SMALL_TABLE, [("id", "int"), ("ytd", "int")],
                        "sias")
    engine.create_index(SMALL, SMALL_TABLE, ["id"], kind="mvpbt")
    txn = engine.begin()
    for wid in WAREHOUSES:
        engine.insert(txn, SMALL_TABLE, (wid, 0))
    txn.commit()


def config(obs: bool = False) -> EngineConfig:
    """The crash harness's sizes, with manifest slots for three
    trees and two tables."""
    return EngineConfig(durability=True, page_size=512, extent_pages=8,
                        partition_buffer_bytes=768, buffer_pool_pages=64,
                        manifest_slot_pages=64, obs=ObsConfig(enabled=obs))


def add_t(engine: Any) -> None:
    engine.create_table(TABLE, [("id", "int"), ("val", "str")], "sias")
    engine.create_index(INDEX, TABLE, ["id"], kind="mvpbt",
                        enable_gc=False, max_partitions=2, merge_fanout=2)


def make_three_index_db(obs: bool = False) -> Database:
    """The crash harness's table and index, a second index on ``t`` and
    the small index: three trees over one 768-byte partition buffer."""
    db = Database(config(obs))
    add_t(db)
    db.create_index("ix_val", TABLE, ["val"], kind="mvpbt",
                    enable_gc=False, max_partitions=2, merge_fanout=2)
    add_small_index(db)
    return db


def script(txns: int = 30, first_id: int = 0) -> list[tuple[str, list[Op]]]:
    """Six inserts, one update and one ``pay`` per transaction; every
    fifth aborts.  ``("pay", wid)`` adds one to a warehouse's ``ytd``."""
    out: list[tuple[str, list[Op]]] = []
    next_id = first_id
    for n in range(txns):
        ops: list[Op] = [("insert", next_id + i, f"v{n}.{i}")
                         for i in range(6)]
        next_id += 6
        ops.append(("update", first_id + n * 3 % (next_id - first_id),
                    f"u{n}"))
        ops.append(("pay", WAREHOUSES[n % 2]))
        out.append(("abort" if n % 5 == 4 else "commit", ops))
    return out


class EngineTxn:
    """A Database's or a router's statements bound to one transaction —
    the statement surface a served session has."""

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.txn = engine.begin()
        self.id: int = self.txn.id

    def insert(self, table: str, row: tuple) -> None:
        self.engine.insert(self.txn, table, row)

    def update_by_key(self, index: str, key: tuple,
                      updates: dict[str, object]) -> None:
        self.engine.update_by_key(self.txn, index, key, updates)

    def commit(self) -> None:
        self.txn.commit()

    def abort(self) -> None:
        self.txn.abort()


class ServedTxn:
    """One transaction of a served session."""

    def __init__(self, session: Any) -> None:
        self.session = session
        self.id: int = session.begin()

    def insert(self, table: str, row: tuple) -> None:
        self.session.insert(table, row)

    def update_by_key(self, index: str, key: tuple,
                      updates: dict[str, object]) -> None:
        self.session.update_by_key(index, key, updates)

    def commit(self) -> None:
        self.session.commit()

    def abort(self) -> None:
        self.session.abort()


def apply_op(stmt: Any, op: Op, state: State) -> None:
    rows, ytd = state
    kind = op[0]
    if kind == "pay":
        ytd[op[1]] += 1
        stmt.update_by_key(SMALL, (op[1],), {"ytd": ytd[op[1]]})
        return
    if kind == "insert":
        stmt.insert(TABLE, (op[1], op[2]))
    elif kind == "update":
        stmt.update_by_key(INDEX, (op[1],), {"val": op[2]})
    else:
        raise ValueError(f"unknown op {op!r}")
    apply_oracle_op(rows, op)


class Run(NamedTuple):
    history: list[tuple[int, State]]   #: (txid, state) per commit
    final: State
    crashed: bool
    #: the transaction interrupted inside commit, and its state
    inflight: tuple[int, State] | None


def copy_state(state: State) -> State:
    return dict(state[0]), dict(state[1])


def run_script(begin: Callable[[], Any],
               steps: list[tuple[str, list[Op]]]) -> Run:
    """Run ``steps``; a crash ends the run (never escapes)."""
    live: State = ({}, {wid: 0 for wid in WAREHOUSES})
    history: list[tuple[int, State]] = []
    for outcome, ops in steps:
        stmt = begin()
        pending = copy_state(live)
        try:
            for op in ops:
                apply_op(stmt, op, pending)
        except DeviceCrashError:
            return Run(history, live, True, None)
        if outcome == "abort":
            stmt.abort()
            continue
        try:
            stmt.commit()
        except DeviceCrashError:
            return Run(history, live, True, (stmt.id, pending))
        live = pending
        history.append((stmt.id, copy_state(live)))
    return Run(history, live, False, None)


def trace_checkpoints(databases: list[Database]
                      ) -> list[tuple[int, int, int]]:
    """Record each checkpoint as ``(shard, first I/O, end I/O)`` on its
    database's device."""
    spans: list[tuple[int, int, int]] = []
    for k, db in enumerate(databases):
        controller = db.durability
        assert controller is not None
        inner = controller.checkpoint

        def traced(k: int = k, db: Database = db,
                   inner: Callable[[], None] = inner) -> None:
            before = db.device.io_count
            inner()
            spans.append((k, before, db.device.io_count))

        controller.checkpoint = traced  # type: ignore[method-assign]
    return spans


def sweep_points(spans: list[tuple[int, int, int]],
                 exhaustive: bool) -> list[tuple[int, int]]:
    """Every I/O of every checkpoint, or the edges of the first."""
    if exhaustive:
        return [(k, io) for k, lo, hi in spans for io in range(lo, hi)]
    k, lo, hi = spans[0]
    return [(k, io) for io in sorted({lo, lo + 1, hi - 1})]


def small_rows(engine: Any, txn: Any) -> list[tuple]:
    """``iw``'s rows.  GC purges the versions no snapshot needs, so only
    the final horizon asks it (the other two trees keep every version)."""
    return sorted(engine.range_select(txn, SMALL, None, None))


def settle_final(run: Run, status_of: Callable[[int], TxnStatus]) -> State:
    """The final state: the in-flight commit's, if recovery decided it."""
    if run.inflight is not None:
        txid, state = run.inflight
        status = status_of(txid)
        assert status in (TxnStatus.COMMITTED, TxnStatus.ABORTED)
        if status is TxnStatus.COMMITTED:
            return state
    return run.final


def t_run(run: Run) -> tuple:
    """``run`` in the harness's terms: table ``t`` only."""
    inflight = run.inflight
    return ([(txid, state[0]) for txid, state in run.history], run.final[0],
            run.crashed, inflight[0] if inflight is not None else None,
            inflight[1][0] if inflight is not None else None)


def check_single(db: Database, run: Run, context: str) -> Database:
    """Recover one database; every horizon answers like the oracle on all
    three indexes."""
    recovered = recover_and_check(WorkloadRun(db, *t_run(run)),
                                  context=context)
    final = settle_final(run, recovered.txn.status_of)
    horizon = recovered.txn.next_txid - 1
    for txid, (rows, _ytd) in run.history + [(horizon, final)]:
        txn = horizon_txn(recovered, txid)
        assert (sorted(recovered.range_select(txn, "ix_val", None, None))
                == sorted(rows.items())), (
            f"{context}: ix_val at horizon {txid}")
    assert (small_rows(recovered, horizon_txn(recovered, horizon))
            == sorted(final[1].items())), f"{context}: {SMALL}"
    return recovered


# ------------------------------------------------------ single-node sweeps

def single_run(path: str, plan: FaultPlan | None = None
               ) -> tuple[Database, Run, list[tuple[int, int, int]]]:
    db = make_three_index_db()
    spans = trace_checkpoints([db])
    if plan is not None:
        db.device.set_fault_plan(plan)
    if path == "served":
        # one session of a served database: commits take group commit
        session = db.serve().session()
        return db, run_script(lambda: ServedTxn(session), script()), spans
    return db, run_script(lambda: EngineTxn(db), script()), spans


@pytest.mark.parametrize("path", ("direct", "served"))
def test_workload_checkpoints_and_small_index_never_evicts(
        path: str) -> None:
    db, run, spans = single_run(path)
    assert not run.crashed
    assert len(spans) >= 2, "the sweep needs checkpoints to kill"
    assert db.catalog.index(SMALL).mvpbt.stats.evictions == 0
    assert db.catalog.index(INDEX).mvpbt.stats.evictions > 0
    assert db.durability is not None
    assert db.durability.checkpoints == len(spans)
    check_single(db, run, f"{path} clean")


@pytest.mark.parametrize("mode", ("clean", "torn"))
@pytest.mark.parametrize("path", ("direct", "served"))
def test_checkpoint_crash_sweep(path: str, mode: str,
                                run_crash_sweep: bool) -> None:
    """Kill at each I/O of the image and of the flip; the statement that
    triggered the checkpoint recovers aborted, everything acknowledged
    before it survives exactly once."""
    _db, _run, spans = single_run(path)
    for _k, io in sweep_points(spans, run_crash_sweep):
        db, run, _spans = single_run(path, FaultPlan(fail_at=io, mode=mode))
        assert run.crashed and run.inflight is None, (
            f"{path} {mode} io={io}: a checkpoint I/O must crash a "
            f"statement")
        check_single(db, run, f"{path} {mode} io={io}")


# ------------------------------------------------------ served router sweep

def router_run(plan: tuple[int, FaultPlan] | None = None
               ) -> tuple[Any, Run, list[tuple[int, int, int]]]:
    sdb = ShardedDatabase(config(), ShardConfig(shards=2, hash_slots=16))
    add_t(sdb)
    add_small_index(sdb)
    spans = trace_checkpoints(sdb.shards)
    if plan is not None:
        shard, fault = plan
        sdb.shards[shard].device.set_fault_plan(fault)
    session = sdb.serve().session()
    return sdb, run_script(lambda: ServedTxn(session),
                           script(txns=40)), spans


def check_router(sdb: Any, run: Run, context: str) -> None:
    recovered = recover_and_check_sharded(ShardedRun(sdb, *t_run(run)),
                                          context=context)
    final = settle_final(run, recovered.shards[0].txn.status_of)
    horizon = max(db.txn.next_txid for db in recovered.shards) - 1
    assert (small_rows(recovered, horizon_stxn(recovered, horizon))
            == sorted(final[1].items())), f"{context}: {SMALL}"


def test_router_workload_checkpoints() -> None:
    sdb, run, spans = router_run()
    assert not run.crashed
    assert {k for k, _lo, _hi in spans} == {0, 1}, (
        "both shards must checkpoint")
    assert len(sdb.coordinator.decisions) >= 3, "too few 2PC commits"
    check_router(sdb, run, "router clean")


@pytest.mark.parametrize("mode", ("clean", "torn"))
def test_router_checkpoint_crash_sweep(mode: str,
                                       run_crash_sweep: bool) -> None:
    _sdb, _run, spans = router_run()
    for shard, io in sweep_points(spans, run_crash_sweep):
        sdb, run, _spans = router_run(
            (shard, FaultPlan(fail_at=io, mode=mode)))
        assert run.crashed
        check_router(sdb, run, f"router {mode} shard{shard} io={io}")


# ------------------------------------------------ the long run, one idle index

def long_run(db: Database, txns: int) -> list[int]:
    """``txns`` transactions of inserts plus a ``pay``, then ones that
    leave ``iw`` alone until the next checkpoint has run (at most 50);
    returns the live log pages after every statement."""
    controller = db.durability
    assert controller is not None
    wal = controller.wal
    live: list[int] = []
    next_id = n = 0
    settled: int | None = None
    while n < txns + 50 and (settled is None
                             or controller.checkpoints == settled):
        if n == txns:
            settled = controller.checkpoints
        txn = db.begin()
        for _ in range(4):
            db.insert(txn, TABLE, (next_id, f"r{next_id}"))
            next_id += 1
            live.append(len(wal._pages) + 1)
        if n < txns:
            db.update_by_key(txn, SMALL, (WAREHOUSES[n % 2],), {"ytd": n})
            live.append(len(wal._pages) + 1)
        txn.commit()
        n += 1
    return live


class TestLongRunWithIdleIndex:
    TXNS = 150

    def test_live_log_stays_within_budget_plus_one_image(self) -> None:
        db = make_three_index_db()
        assert db.durability is not None
        wal = db.durability.wal
        images: list[int] = []
        inner = db.durability.checkpoint

        def traced() -> None:
            before = wal.pages_written
            inner()
            images.append(wal.pages_written - before)

        db.durability.checkpoint = traced  # type: ignore[method-assign]
        live = long_run(db, self.TXNS)
        assert len(images) >= 5
        budget_pages = (CHECKPOINT_BUFFERS * db.partition_buffer.capacity_bytes
                        // wal.file.page_size)
        assert max(live) <= budget_pages + max(images)

    def test_without_the_checkpoint_the_log_grows(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setattr(controller_module, "CHECKPOINT_BUFFERS", 10**9)
        db = make_three_index_db()
        live = long_run(db, self.TXNS)
        budget_pages = (CHECKPOINT_BUFFERS * db.partition_buffer.capacity_bytes
                        // db.config.page_size)
        assert live[-1] > 3 * budget_pages

    def recover_idle(self) -> tuple[int, list, list]:
        """Run the long run, cut the power, recover: records replayed, and
        ``iw``'s ``P_N`` before and after."""
        db = make_three_index_db(obs=True)
        long_run(db, self.TXNS)
        assert db.catalog.index(SMALL).mvpbt.gc_stats.purged_page_level > 0
        before = list(db.catalog.index(SMALL).mvpbt.memory_partition
                      .iter_records())
        recovered = Database.recover(db)
        after = list(recovered.catalog.index(SMALL).mvpbt.memory_partition
                     .iter_records())
        counters = recovered.metrics_snapshot()["counters"]
        return counters["recovery.wal_records_replayed"], before, after

    def test_recovered_idle_pn_is_the_pre_crash_pn(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        replayed, before, after = self.recover_idle()
        assert after == before
        monkeypatch.setattr(controller_module, "CHECKPOINT_BUFFERS", 10**9)
        without, before, after = self.recover_idle()
        assert replayed < without / 4
        # what the checkpoint removes: replay resurrected every version
        # GC had purged from the idle P_N
        assert len(after) > len(before)


def test_image_leaves_out_what_open_transactions_owe() -> None:
    """The image carries every ``P_N`` record but the open transaction's
    (its commit logs them), and the checkpoint shows in the ``wal.*``
    view and the trace."""
    db = make_three_index_db(obs=True)
    controller = db.durability
    assert controller is not None
    done = db.begin()
    db.insert(done, TABLE, (1, "done"))
    done.commit()
    owing = db.begin()
    db.insert(owing, TABLE, (2, "open"))
    floor = controller.wal.end_lsn
    controller.checkpoint()

    _wal, entries = WriteAheadLog.recover(db.wal_file)
    image = [e for e in entries if e.lsn >= floor]
    imaged = {(e.index_name, e.record.seq) for e in image}
    for info in db.catalog.indexes:
        tree = info.mvpbt
        in_pn = {(info.name, r.seq)
                 for r in tree.memory_partition.iter_records()}
        owed = {(info.name, r.seq)
                for r in tree._wal_pending.get(owing.id, ())}
        assert owed <= in_pn and bool(owed) == (info.name != SMALL)
        assert imaged & in_pn == in_pn - owed
    assert all(f == floor for f in controller._floors.values())
    assert controller.metrics()["wal.checkpoints"] == 1
    events = [e["attrs"] for e in db.obs.tracer.events()
              if e["name"] == "wal.checkpoint"]
    assert [(e["entries"], e["floor"]) for e in events] == [
        (len(image), floor)]
    owing.commit()
    recovered = Database.recover(db)
    txn = recovered.begin()
    assert sorted(recovered.range_select(txn, INDEX, None, None)) == [
        (1, "done"), (2, "open")]
