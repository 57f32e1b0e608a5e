"""Crash-point fault-injection harness (DESIGN.md §11.6).

The harness runs one deterministic, sequential DML workload against a
durable :class:`~repro.engine.database.Database`, maintaining a plain-Python
oracle of the committed table state after every commit.  A
:class:`~repro.sim.device.FaultPlan` kills the device at a chosen I/O
index; the harness then recovers the database and asserts **recovery
equivalence**: at every per-commit snapshot horizon the recovered MV-PBT
answers every point lookup and a full range scan exactly like the oracle —
every committed version visible, nothing uncommitted or retired resurrected
(duplicates are caught because hit lists are compared, not sets).

The only permitted divergence is the transaction in flight *inside*
``commit()`` at the crash: its COMMIT marker may or may not have become
durable before the device died, so the final horizon is checked against
both oracle states and must match the one the recovered commit log chose.

The workload is sized against the harness config (tiny partition buffer,
``max_partitions=2``) so a full run crosses several partition evictions and
at least one tiered merge — the sweep therefore hits crash points inside
extent appends, manifest flips, WAL appends and input-partition retirement.
"""

from __future__ import annotations

from typing import Any, NamedTuple, TypeAlias

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import DeviceCrashError
from repro.sim.device import FaultPlan
from repro.txn.snapshot import Snapshot
from repro.txn.status import TxnStatus
from repro.txn.transaction import Transaction

#: every key any workload operation may touch (checked at every horizon)
KEY_UNIVERSE = range(0, 100)

INDEX = "ix"
TABLE = "t"


def make_db(storage: str = "sias", obs: bool = False,
            index_only_visibility: bool = True,
            extent_pages: int = 8) -> Database:
    """A durable database small enough to evict and merge constantly
    (``index_only_visibility=False``: its index is version-oblivious;
    ``extent_pages=1``: a two-page manifest flip grows its slot)."""
    from repro.obs import ObsConfig
    config = EngineConfig(
        durability=True,
        page_size=512,                   # small pages: real WAL page turnover
        extent_pages=extent_pages,
        partition_buffer_bytes=768,      # ~25 records per P_N
        buffer_pool_pages=64,
        manifest_slot_pages=6,
        obs=ObsConfig(enabled=obs),
    )
    db = Database(config)
    db.create_table(TABLE, [("id", "int"), ("val", "str")], storage=storage)
    db.create_index(INDEX, TABLE, ["id"], kind="mvpbt",
                    enable_gc=False, max_partitions=2, merge_fanout=2,
                    index_only_visibility=index_only_visibility)
    return db


# --------------------------------------------------------------- workload

#: one workload operation:
#: ("insert", id, val) / ("update", id, val) / ("move", id, new_id) /
#: ("delete", id) / ("read", id) — the last writes nothing
Op: TypeAlias = tuple[Any, ...]
#: one transaction: ("commit" | "abort", [ops])
Script: TypeAlias = "list[tuple[str, list[Op]]]"
#: committed table state: id -> val
OracleState: TypeAlias = "dict[int, str]"

SCRIPT: Script = [
    ("commit", [("insert", i, f"a{i}") for i in range(0, 10)]),
    ("commit", [("insert", i, f"b{i}") for i in range(10, 15)]
     + [("update", 3, "b3u"), ("delete", 7)]),
    ("abort", [("insert", i, f"x{i}") for i in range(90, 96)]
     + [("update", 1, "x1u")]),
    # a large transaction spanning at least one eviction mid-flight
    ("commit", [("insert", i, f"c{i}") for i in range(15, 35)]),
    ("commit", [("move", 4, 40), ("update", 12, "c12u")]),
    ("commit", [("delete", 15), ("insert", 7, "d7")]),
    ("commit", [("insert", i, f"e{i}") for i in range(41, 52)]),
    ("commit", [("update", i, f"f{i}u") for i in range(0, 20, 2)
                if i not in (4, 15)]),
    ("abort", [("delete", i) for i in range(0, 6) if i != 4]),
    ("commit", [("insert", i, f"g{i}") for i in range(52, 60)]
     + [("move", 10, 60), ("delete", 22)]),
    ("commit", [("insert", i, f"h{i}") for i in range(61, 70)]),
    ("commit", [("update", 33, "h33u"), ("move", 40, 71),
                ("delete", 52), ("insert", 72, "h72")]),
]


def apply_db_op(db: Database, txn: Transaction, op: Op) -> None:
    kind = op[0]
    if kind == "insert":
        db.insert(txn, TABLE, (op[1], op[2]))
    elif kind == "update":
        db.update_by_key(txn, INDEX, (op[1],), {"val": op[2]})
    elif kind == "move":
        db.update_by_key(txn, INDEX, (op[1],), {"id": op[2]})
    elif kind == "delete":
        db.delete_by_key(txn, INDEX, (op[1],))
    elif kind == "read":
        db.select(txn, INDEX, (op[1],))
    else:
        raise ValueError(f"unknown op {op!r}")


def apply_oracle_op(state: OracleState, op: Op) -> None:
    kind = op[0]
    if kind == "insert":
        assert op[1] not in state, f"script bug: duplicate insert {op}"
        state[op[1]] = op[2]
    elif kind == "update":
        if op[1] in state:
            state[op[1]] = op[2]
    elif kind == "move":
        if op[1] in state:
            assert op[2] not in state, f"script bug: move onto live key {op}"
            state[op[2]] = state.pop(op[1])
    elif kind == "delete":
        state.pop(op[1], None)


class WorkloadRun(NamedTuple):
    """Everything the equivalence check needs about one (crashed) run."""

    db: Database
    history: list[tuple[int, OracleState]]  #: (txid, oracle state) commits
    final: OracleState                      #: state after last commit
    crashed: bool
    #: txid whose commit() was interrupted by the crash (durability of its
    #: COMMIT marker is ambiguous), plus the oracle state if it committed
    inflight_txid: int | None
    inflight_state: OracleState | None


def run_workload(plan: FaultPlan | None = None,
                 script: Script | None = None,
                 storage: str = "sias", obs: bool = False,
                 index_only_visibility: bool = True,
                 extent_pages: int = 8, trace: bool = False) -> WorkloadRun:
    """Run the scripted workload, optionally under a fault plan
    (``trace``: capture every device request in ``db.trace``).

    Never lets a :class:`DeviceCrashError` escape: a crashed run is
    returned for recovery, a clean run for baseline measurements.
    """
    db = make_db(storage, obs=obs,
                 index_only_visibility=index_only_visibility,
                 extent_pages=extent_pages)
    if trace:
        db.trace.enable()
    if plan is not None:
        db.device.set_fault_plan(plan)
    live: OracleState = {}
    history: list[tuple[int, OracleState]] = []
    for outcome, ops in (script if script is not None else SCRIPT):
        txn = db.begin()
        pending = dict(live)
        try:
            for op in ops:
                apply_db_op(db, txn, op)
                apply_oracle_op(pending, op)
        except DeviceCrashError:
            # mid-operation crash: the transaction never reached commit(),
            # so it must recover as aborted — no ambiguity
            return WorkloadRun(db, history, live, True, None, None)
        if outcome == "abort":
            txn.abort()
            continue
        try:
            txn.commit()
        except DeviceCrashError:
            # mid-commit crash: the COMMIT marker may or may not be durable
            return WorkloadRun(db, history, live, True, txn.id, pending)
        live = pending
        history.append((txn.id, dict(live)))
    return WorkloadRun(db, history, live, False, None, None)


# ------------------------------------------------------------ equivalence

def horizon_txn(db: Database, horizon_txid: int) -> Transaction:
    """A synthetic read-only transaction seeing all commits with
    txid <= ``horizon_txid`` (and nothing else)."""
    snap = Snapshot(owner=0, xmax=horizon_txid + 1, active=frozenset(),
                    xmin=horizon_txid + 1)
    return Transaction(0, snap, db.txn)


def assert_state_equal(db: Database, horizon_txid: int,
                       expect: OracleState, context: str = "") -> None:
    """The index answers exactly like the oracle at one snapshot horizon."""
    txn = horizon_txn(db, horizon_txid)
    for key in KEY_UNIVERSE:
        got = sorted(db.select(txn, INDEX, (key,)))
        want = [(key, expect[key])] if key in expect else []
        assert got == want, (
            f"{context}: key {key} at horizon {horizon_txid}: "
            f"got {got}, want {want}")
    got_all = sorted(db.range_select(txn, INDEX, None, None))
    want_all = sorted((k, v) for k, v in expect.items())
    assert got_all == want_all, (
        f"{context}: full scan at horizon {horizon_txid} diverges: "
        f"got {len(got_all)} rows, want {len(want_all)}")


def wal_manifest_sectors(db: Database) -> set[int]:
    """Every device sector belonging to the manifest or WAL file."""
    sectors: set[int] = set()
    for file in (db.manifest_file, db.wal_file):
        for addr in file._addresses.values():
            base = addr // 512
            sectors.update(range(base, base + file.page_size // 512))
    return sectors


def recover_and_check(run: WorkloadRun, context: str = "") -> Database:
    """Recover a crashed run and assert full recovery equivalence.

    Also asserts the recovery I/O pattern: only reads, and only of
    manifest or WAL extents (partition leaves are re-attached unread).
    """
    db = run.db
    trace = db.trace
    trace.clear()
    trace.enable()
    recovered = Database.recover(db)
    trace.disable()

    allowed = wal_manifest_sectors(recovered)
    for entry in trace.entries():
        assert entry.kind == "R", (
            f"{context}: recovery issued a write at LBA {entry.lba}")
        covered = all(lba in allowed
                      for lba in range(entry.lba, entry.end_lba))
        assert covered, (
            f"{context}: recovery read outside manifest/WAL extents "
            f"(LBA {entry.lba}..{entry.end_lba})")

    # every historical commit horizon answers exactly like the oracle
    for txid, state in run.history:
        assert_state_equal(recovered, txid, state,
                           context=f"{context} horizon txid={txid}")

    # final horizon: the in-flight commit (if any) may have gone either way,
    # but the outcome must match what the recovered commit log decided
    final = run.final
    if run.inflight_txid is not None:
        status = recovered.txn.status_of(run.inflight_txid)
        assert status in (TxnStatus.COMMITTED, TxnStatus.ABORTED), (
            f"{context}: in-flight txn {run.inflight_txid} undecided")
        if status is TxnStatus.COMMITTED:
            assert run.inflight_state is not None
            final = run.inflight_state
    assert_state_equal(recovered, recovered.txn.next_txid - 1, final,
                       context=f"{context} final horizon")
    return recovered


def clean_io_count(storage: str = "sias") -> int:
    """Completed I/Os of one fault-free workload run (the sweep domain)."""
    run = run_workload(storage=storage)
    assert not run.crashed
    return run.db.device.io_count


def dump_obs_artifacts(db: Database, out_base: str) -> list[str]:
    """Write the crashed-or-recovered run's metrics/trace next to the
    sweep output (``<base>.metrics.json`` / ``<base>.trace.jsonl``).

    Host-side debugging aid — the engine itself never touches the real
    filesystem (reprolint R4)."""
    if db.obs is None:
        return []
    paths = [f"{out_base}.metrics.json", f"{out_base}.trace.jsonl"]
    with open(paths[0], "w") as fh:
        fh.write(db.obs.export_metrics_json())
    with open(paths[1], "w") as fh:
        fh.write(db.obs.export_trace_jsonl())
    return paths
