"""Crash mid cross-shard NEW-ORDER: kill a device, recover the topology,
prove all-shards-or-no-shards atomicity on real TPC-C data (DESIGN.md
§18.6).

The scripted sweeps in ``test_shard_crash.py`` exercise a synthetic
key/value workload; here the SAME fault plans hit a served, durable
2-shard cluster running genuine TPC-C new-orders forced cross-shard
(``remote_order_line_prob=1.0`` with warehouses on both shards), so every
crash point lands inside — or between — 2PC commits that touch district,
orders, new_order, order_line and REMOTE stock rows at once.

The commit point of each of those commits is the last touched shard's
commit append, so the coordinator's device stays silent through the run
and only the shard devices are swept.

After recovery we assert three things:

* **status atomicity** — every transaction id issued during the run has
  ONE status, identical on every shard, and it is decided;
* **TPC-C consistency** — the recovered committed state passes the spec
  invariants (C1-C4): no half-applied new-order can survive, or C2/C3/C4
  would catch the missing order/new_order/order-line rows;
* **cross-shard ledger balance** — the stock table's total ``s_ytd``
  (updated on the *supplying* warehouse's shard) equals the total
  quantity of runtime order lines (inserted on the *home* warehouse's
  shard): a commit that reached one shard but not the other breaks the
  ledger immediately.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.errors import DeviceCrashError
from repro.shard import ShardConfig, ShardedDatabase
from repro.sim.device import FaultPlan, SimulatedDevice
from repro.txn.status import TxnStatus
from repro.workloads import (ShardServerBackend, TPCCConfig, TPCCResult,
                             TPCCRunner, assert_tpcc_consistent,
                             shard_served_backend)

pytestmark = [pytest.mark.crash, pytest.mark.shard, pytest.mark.workload]

SHARDS = 2
SHARD_TARGETS = ("shard0", "shard1")
TARGETS = SHARD_TARGETS + ("coord",)

#: the load deals two of the four warehouses to each shard (asserted in
#: ``test_workload_reaches_both_shards``), so a remote order line regularly
#: crosses the shard boundary
CRASH_CFG = TPCCConfig(
    warehouses=4, districts_per_warehouse=1, customers_per_district=3,
    items=8, initial_orders_per_district=2,
    new_order_weight=1.0, payment_weight=0.0, order_status_weight=0.0,
    delivery_weight=0.0, stock_level_weight=0.0,
    remote_order_line_prob=1.0, seed=31)
N_TXNS = 20


def make_cluster() -> tuple[ShardedDatabase, ShardServerBackend,
                            TPCCRunner]:
    """A served, durable 2-shard cluster, loaded with the crash-scale
    TPC-C data."""
    config = EngineConfig(
        durability=True,
        page_size=512,
        extent_pages=8,
        partition_buffer_bytes=768,
        buffer_pool_pages=64,
        # nine tables + ten indexes of metadata, growing one partition
        # descriptor per eviction — size the slot for the whole run
        manifest_slot_pages=64,
    )
    router = ShardedDatabase(config, ShardConfig(shards=SHARDS,
                                                 hash_slots=16))
    backend = shard_served_backend(router)
    runner = TPCCRunner(backend, CRASH_CFG)
    runner.load()
    return router, backend, runner


def device_of(router: ShardedDatabase, target: str) -> SimulatedDevice:
    if target == "coord":
        assert router.coordinator_device is not None
        return router.coordinator_device
    return router.shards[int(target.removeprefix("shard"))].device


class WorkloadRun:
    """One (possibly crashed) TPC-C run over the durable cluster.  A
    crashed run's server is abandoned, never closed: its engine is dead."""

    def __init__(self, router: ShardedDatabase,
                 backend: ShardServerBackend,
                 crashed: bool, start_txid: int,
                 result: TPCCResult | None) -> None:
        self.router = router
        self.backend = backend
        self.crashed = crashed
        self.start_txid = start_txid
        self.result = result


def run_new_orders(target: str | None = None, k: int = 0,
                   mode: str = "clean",
                   fraction: float = 0.5) -> WorkloadRun:
    """Load, then run N_TXNS new-orders; arm the fault plan ``k`` I/Os
    into the RUN phase of ``target``'s device (post-load, so the sweep
    indexes the interesting region, not the bulk load)."""
    router, backend, runner = make_cluster()
    if target is not None:
        device = device_of(router, target)
        device.set_fault_plan(FaultPlan(fail_at=device.io_count + k,
                                        mode=mode, fraction=fraction))
    start_txid = router.coordinator.next_txid
    crashed = False
    result: TPCCResult | None = None
    try:
        result = runner.run(N_TXNS)
    except DeviceCrashError:
        crashed = True
    return WorkloadRun(router, backend, crashed, start_txid, result)


def assert_stock_ledger_balanced(backend: ShardServerBackend,
                                 context: str) -> None:
    """Cross-shard ledger: total s_ytd == total runtime order-line qty."""
    initial = CRASH_CFG.initial_orders_per_district
    lines = backend.dump_table("order_line")
    stock = backend.dump_table("stock")
    runtime_qty = sum(row[6] for row in lines if row[2] > initial)
    ytd_total = sum(row[3] for row in stock)
    assert abs(ytd_total - runtime_qty) < 1e-6, (
        f"{context}: stock s_ytd total {ytd_total} != runtime order-line "
        f"quantity {runtime_qty} — a new-order committed on one shard "
        f"but not the other")


def recover_and_check(run: WorkloadRun,
                      context: str) -> ShardServerBackend:
    """Recover every shard + the coordinator; assert the §18.6 invariants."""
    recovered = ShardedDatabase.recover(run.router)

    # status atomicity: every txid issued during the run is decided, and
    # identically so on every shard
    end_txid = max(db.txn.next_txid for db in recovered.shards)
    assert end_txid > run.start_txid, f"{context}: no transactions ran"
    for txid in range(run.start_txid, end_txid):
        statuses = {db.txn.status_of(txid) for db in recovered.shards}
        assert len(statuses) == 1, (
            f"{context}: txn {txid} recovered with split statuses "
            f"{statuses} — partial cross-shard visibility")
        assert statuses <= {TxnStatus.COMMITTED, TxnStatus.ABORTED}, (
            f"{context}: txn {txid} undecided after recovery")

    backend = shard_served_backend(recovered)
    assert_tpcc_consistent(backend, context=context)
    assert_stock_ledger_balanced(backend, context)
    return backend


def _crash_points(total: int, exhaustive: bool) -> list[int]:
    if exhaustive:
        points = set(range(0, total, 7))
    else:
        step = max(1, total // 5)
        points = set(range(0, total, step))
    points |= {1, total - 1}
    return sorted(k for k in points if 0 <= k < total)


# ------------------------------------------------------------------ sweeps

@pytest.fixture(scope="module")
def clean_run() -> dict[str, object]:
    """One fault-free run: per-device run-phase I/O counts + baselines."""
    router, backend, runner = make_cluster()
    load_io = {t: device_of(router, t).io_count for t in TARGETS}
    decisions_before = len(router.coordinator.decisions)
    start_txid = router.coordinator.next_txid
    result = runner.run(N_TXNS)
    run_io = {t: device_of(router, t).io_count - load_io[t]
              for t in TARGETS}
    info = {
        "run_io": run_io,
        "result": result,
        "decisions": len(router.coordinator.decisions) - decisions_before,
        "start_txid": start_txid,
        "backend": backend,
        "router": router,
    }
    yield info
    backend.close()


def test_workload_reaches_both_shards(clean_run: dict[str, object]) -> None:
    """The sweep is only meaningful if new-orders really commit via 2PC."""
    result = clean_run["result"]
    assert result.committed + result.aborted == N_TXNS
    assert result.committed >= N_TXNS - 5
    assert result.by_type == {"new_order": result.committed}
    # forced remote order lines -> durable cross-shard commits, each
    # decided by its last touched shard's commit append
    assert clean_run["decisions"] > 5, (
        "new-orders did not take the durable 2PC path")
    # the load dealt two warehouses to each shard
    owner = clean_run["router"].partitioner.shard_of
    owned = [owner((w,)) for w in range(1, CRASH_CFG.warehouses + 1)]
    assert sorted(owned.count(k) for k in range(SHARDS)) == [2, 2], owned
    run_io = clean_run["run_io"]
    for target in SHARD_TARGETS:
        assert run_io[target] > 0, f"{target} sat idle during the run"
    assert run_io["coord"] == 0, "the coordinator wrote during the run"
    assert_tpcc_consistent(clean_run["backend"], context="clean run")
    assert_stock_ledger_balanced(clean_run["backend"], "clean run")


@pytest.mark.parametrize("target", SHARD_TARGETS)
def test_new_order_crash_sweep(target: str, clean_run: dict[str, object],
                               run_crash_sweep: bool) -> None:
    """Kill one device k I/Os into the run; recover; assert atomicity."""
    total = clean_run["run_io"][target]
    crashes = 0
    for k in _crash_points(total, run_crash_sweep):
        run = run_new_orders(target, k)
        assert run.crashed, f"{target} k={k} must crash mid-run"
        crashes += 1
        recover_and_check(run, context=f"{target} k={k}").close()
    assert crashes > 0


def test_coordinator_is_silent_during_new_orders(
        clean_run: dict[str, object]) -> None:
    """A coordinator device armed at its next I/O never fires through the
    cross-shard new-orders, and the run matches the clean one."""
    run = run_new_orders("coord", 0)
    assert not run.crashed
    assert run.result is not None
    assert run.result.committed == clean_run["result"].committed
    run.backend.close()
    recover_and_check(run, context="coordinator silent").close()


def test_torn_new_order_write_recovers(
        clean_run: dict[str, object]) -> None:
    """A torn sector mid new-order is discarded by recovery, atomically."""
    k = clean_run["run_io"]["shard1"] // 2
    for fraction in (0.0, 0.5, 0.99):
        run = run_new_orders("shard1", k, mode="torn", fraction=fraction)
        assert run.crashed
        recover_and_check(run, context=f"torn f={fraction} k={k}").close()


def test_crash_beyond_run_never_fires(
        clean_run: dict[str, object]) -> None:
    """Determinism guard: the armed-but-unfired run matches the clean one."""
    run = run_new_orders("shard0",
                         clean_run["run_io"]["shard0"] + 1000)
    assert not run.crashed
    assert run.result is not None
    baseline = clean_run["result"]
    assert run.result.committed == baseline.committed
    assert run.result.aborted == baseline.aborted
    run.backend.close()


def test_recovered_cluster_accepts_cross_shard_txns(
        clean_run: dict[str, object]) -> None:
    """Post-recovery the cluster still runs 2PC payments and stays
    consistent — recovery returns a working router, not a read replica.
    The crash hits shard 1, the last touched shard of every cross-shard
    commit here, halfway through the run."""
    run = run_new_orders("shard1", clean_run["run_io"]["shard1"] // 2)
    assert run.crashed
    backend = recover_and_check(run, context="resume")
    decisions_before = len(backend.router.coordinator.decisions)
    # a manual double-payment touching warehouses 1 and 4, which the
    # load put on different shards, in ONE transaction: cross-shard
    owner = backend.router.partitioner.shard_of
    assert owner((1,)) != owner((4,))
    txn = backend.begin()
    for w in (1, 4):
        wh = txn.select_hits("idx_warehouse", (w,))[0]
        txn.update("warehouse", wh, {"w_ytd": wh.row[2] + 50.0})
        dist = txn.select_hits("idx_district", (w, 1))[0]
        txn.update("district", dist, {"d_ytd": dist.row[3] + 50.0})
    txn.commit()
    assert len(backend.router.coordinator.decisions) > decisions_before, (
        "post-recovery payment did not take the 2PC path")
    assert_tpcc_consistent(backend, context="post-recovery")
    backend.close()
