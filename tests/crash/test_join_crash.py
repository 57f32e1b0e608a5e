"""A manifest flip on a shard a global transaction has not joined yet
must list it active (DESIGN.md §16.2).

Transaction T is globally active and has not reached shard 0 when a
later transaction makes shard 0 flip its manifest.  T then joins shard 0
and shard 1, writes on both, and commits: a PREPARE on shard 0, the
decision on shard 1 (the last touched).  Killing either device at any
I/O before the decision is durable must recover T aborted on every
shard.  Were the flip to list only shard 0's own active transactions,
recovery would infer T committed from that flip's watermark and replay
its PREPAREd records as committed.  A second variant also evicts T's
record on shard 0 before the PREPARE.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.errors import DeviceCrashError
from repro.shard import ShardedDatabase
from repro.sim.device import FaultPlan
from repro.txn.status import TxnStatus

from .test_shard_crash import INDEX, TABLE, _crash_points, make_sharded

pytestmark = [pytest.mark.crash, pytest.mark.shard]


def owned_by(sdb: ShardedDatabase, shard: int, keys: range) -> int:
    return next(k for k in keys if sdb.partitioner.shard_of((k,)) == shard)


class Run(NamedTuple):
    """One (possibly crashed) run: the router, T's id, and every device's
    I/O count when T began."""

    sdb: ShardedDatabase
    t_id: int
    begun_at: list[int]
    crashed: bool


def run(evict: bool, target: int | None = None,
        fail_at: int | None = None) -> Run:
    sdb = make_sharded()
    txn = sdb.begin()
    for key in range(8):
        sdb.insert(txn, TABLE, (key, f"v{key}"))
    txn.commit()
    tree = sdb.shards[0].catalog.index(INDEX).mvpbt
    durability = sdb.shards[0].durability
    assert durability is not None
    if target is not None:
        sdb.shards[target].device.set_fault_plan(FaultPlan(fail_at=fail_at))
    begun_at = [db.device.io_count for db in sdb.shards]
    t = sdb.begin()
    u = sdb.begin()
    try:
        sdb.insert(u, TABLE, (owned_by(sdb, 0, range(100, 200)), "u"))
        u.commit()
        tree.evict_partition()          # shard 0 flips; T has not joined
        assert t.members == {}
        epoch = durability.manifest.epoch
        sdb.insert(t, TABLE, (owned_by(sdb, 0, range(200, 300)), "t"))
        sdb.insert(t, TABLE, (owned_by(sdb, 1, range(200, 300)), "t"))
        if evict:
            tree.evict_partition()      # T's record leaves P_N
        else:
            assert durability.manifest.epoch == epoch
        t.commit()
    except DeviceCrashError:
        return Run(sdb, t.id, begun_at, True)
    return Run(sdb, t.id, begun_at, False)


@pytest.mark.parametrize("evict", [False, True], ids=["prepare", "evicted"])
@pytest.mark.parametrize("target", [0, 1], ids=["shard0", "shard1"])
def test_a_kill_before_the_decision_aborts_the_unjoined_writer(
        evict: bool, target: int, run_crash_sweep: bool) -> None:
    """Kill one device at every I/O from T's begin to the decision (the
    last I/O shard 1 makes); recover; T is aborted on every shard and
    none of its rows reads back."""
    clean = run(evict)
    assert not clean.crashed
    assert clean.t_id in clean.sdb.coordinator.decisions
    first = clean.begun_at[target]
    total = clean.sdb.shards[target].device.io_count - first
    assert total > 0
    for offset in _crash_points(total, run_crash_sweep):
        k = first + offset
        crashed = run(evict, target, k)
        assert crashed.crashed, f"shard{target} fail_at={k} must crash"
        recovered = ShardedDatabase.recover(crashed.sdb)
        for db in recovered.shards:
            status = db.txn.status_of(crashed.t_id)
            assert status is TxnStatus.ABORTED, (
                f"shard{target} fail_at={k}: T recovered {status}")
        reader = recovered.begin()
        rows = recovered.range_select(reader, INDEX, None, None)
        reader.commit()
        assert all(val != "t" for _key, val in rows), (
            f"shard{target} fail_at={k}: T's rows read back")


def test_an_aborted_writer_stays_aborted_where_it_never_joined() -> None:
    """T writes only on shard 1 — its record evicted there — and aborts;
    shard 0 flips later.  That flip must list T aborted: inferring it
    committed would commit T's evicted record on shard 1 through the
    union of commit evidence recovery folds into every shard."""
    sdb = make_sharded()
    t = sdb.begin()
    sdb.insert(t, TABLE, (owned_by(sdb, 1, range(100)), "t"))
    sdb.shards[1].catalog.index(INDEX).mvpbt.evict_partition()
    t.abort()
    assert list(t.members) == [1]
    u = sdb.begin()
    sdb.insert(u, TABLE, (owned_by(sdb, 0, range(100)), "u"))
    u.commit()
    sdb.shards[0].catalog.index(INDEX).mvpbt.evict_partition()
    recovered = ShardedDatabase.recover(sdb)
    for db in recovered.shards:
        assert db.txn.status_of(t.id) is TxnStatus.ABORTED
        assert db.txn.status_of(u.id) is TxnStatus.COMMITTED
    reader = recovered.begin()
    assert [val for _key, val in
            recovered.range_select(reader, INDEX, None, None)] == ["u"]
    reader.commit()
