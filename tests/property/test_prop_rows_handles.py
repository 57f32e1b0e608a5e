"""Property tests: a statement that returns rows returns its handle
twin's rows (DESIGN.md §9.1).

Row-returning statements never build a :class:`RowHit`; hit-addressed DML
gets handles.  Both forms come out of one materialisation, so for every
read-path mode of ``TestScanStream.MODES`` (heap, SIAS, delta, B⁺-Tree,
version-oblivious MV-PBT) and every snapshot a drawn DML history leaves
held open, each rows statement must equal ``[h.row for h in <its handle
twin>]``: ``select`` / ``select_hits``, ``range_select`` / ``range_hits``,
``scan_stream`` at LIMITs −1 / 0 / 1 / 7 / 100, and ``fetch_rows``.  The
same holds on a 4-shard router after a ``move_slot`` shuffle has left
rebalance residue behind, which the rows paths must filter exactly as the
handle paths do; there the snapshots are held by served sessions, whose
``scan_limit`` is the router's LIMIT scan.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.shard import ShardConfig, ShardedDatabase

from ..unit import test_executor
from ..unit.test_executor import setup
from .test_prop_shard_routing import shuffle_leaving_residue

#: (imported through the module, so pytest does not collect the class
#: a second time here)
MODES = test_executor.TestScanStream.MODES
KEYS = range(30)
LIMITS = (-1, 0, 1, 7, 100)
RANGES = [(None, None), ((5,), (20,)), ((3,), (3,)), ((12,), None),
          (None, (9,))]
#: a sharded table is heap or SIAS, its indexes MV-PBT
SHARDABLE = [mode for mode in MODES
             if mode.get("kind", "mvpbt") == "mvpbt"
             and mode.get("storage") != "delta"]

key_st = st.sampled_from(KEYS)
op_st = st.one_of(
    st.tuples(st.just("insert"), key_st, st.text("ab", max_size=2)),
    st.tuples(st.just("update"), key_st, st.text("xy", max_size=2)),
    st.tuples(st.just("move"), key_st, key_st),
    st.tuples(st.just("delete"), key_st),
)
history_st = st.lists(st.fixed_dictionaries({
    "ops": st.lists(op_st, min_size=1, max_size=6),
    "commit": st.booleans(),
    "hold": st.booleans(),
}), min_size=1, max_size=6)


def mode_id(mode):
    return ",".join(f"{k}={v}" for k, v in mode.items()) or "sias"


def run_history(engine, history, hold=None):
    """Preload every key, then apply ``history``; returns the snapshots
    held open along the way plus a fresh one, each opened by ``hold``
    (default: ``engine.begin``)."""
    hold = hold or engine.begin
    txn = engine.begin()
    for key in KEYS:
        engine.insert(txn, "r", (key, f"v{key}"))
    txn.commit()
    held = []
    for step in history:
        if step["hold"]:
            held.append(hold())
        txn = engine.begin()
        for op in step["ops"]:
            if op[0] == "insert":
                engine.insert(txn, "r", (op[1], op[2]))
            elif op[0] == "update":
                engine.update_by_key(txn, "ix", (op[1],), {"b": op[2]})
            elif op[0] == "move":
                engine.update_by_key(txn, "ix", (op[1],), {"a": op[2]})
            else:
                engine.delete_by_key(txn, "ix", (op[1],))
        if step["commit"]:
            txn.commit()
        else:
            txn.abort()
    return held + [hold()]


def rows_of(handles):
    return [hit.row for hit in handles]


@pytest.mark.parametrize("mode", MODES, ids=mode_id)
@settings(max_examples=12, deadline=None)
@given(history=history_st)
# partition GC across an index-key change: the purge the aborted update
# triggers must leave row 1's old key dead (else the last update of key 1
# reaches a superseded version and raises WriteConflictError)
@example(history=[
    {"ops": [("update", 1, ""), ("move", 1, 0), ("update", 0, "")],
     "commit": True, "hold": True},
    {"ops": [("update", 0, "")], "commit": False, "hold": False},
    {"ops": [("update", 1, "")], "commit": True, "hold": False},
])
def test_single_node_rows_equal_handles(mode, history):
    db = setup(**mode)
    info = db.catalog.index("ix")
    for txn in run_history(db, history):
        for key in KEYS[::4]:
            assert db.select(txn, "ix", (key,)) == rows_of(
                db.select_hits(txn, "ix", (key,))), key
        for lo, hi in RANGES:
            handles = rows_of(db.range_hits(txn, "ix", lo, hi))
            assert db.range_select(txn, "ix", lo, hi) == handles, (lo, hi)
            if info.index_only:
                pulled = [(0, hit) for hit in info.mvpbt.range_scan(
                    txn, lo, hi)]
                assert db.fetch_rows(txn, "ix", pulled,
                                     merged=False) == handles
        for lo, _hi in RANGES:
            handles = rows_of(db.range_hits(txn, "ix", lo, None))
            for limit in LIMITS:
                got = [row for chunk in db.executor.scan_stream(
                    txn, info, lo, None, limit=limit) for row in chunk]
                assert got == handles[:max(limit, 0)], (lo, limit)
        txn.commit()


@pytest.mark.shard
@pytest.mark.parametrize("mode", SHARDABLE, ids=mode_id)
@settings(max_examples=8, deadline=None)
@given(history=history_st, shard_key=st.sampled_from(["a", "b"]),
       seed=st.integers(0, 2 ** 16))
def test_sharded_rows_equal_handles_past_residue(mode, history, shard_key,
                                                 seed):
    """Shard key ``a`` routes point keys to the owner; ``b`` scatters
    every read, so residue meets the point paths too."""
    options = dict(mode)
    storage = options.pop("storage", "sias")
    router = ShardedDatabase(EngineConfig(buffer_pool_pages=128),
                             ShardConfig(shards=4))
    router.create_table("r", [("a", "int"), ("b", "str")], storage,
                        shard_key=[shard_key])
    router.create_index("ix", "r", ["a"], **options)
    server = router.serve()

    def hold():
        session = server.session()
        session.begin()
        return session

    held = run_history(router, history, hold)
    shuffle_leaving_residue(router, seed)
    index_only = router.shards[0].catalog.index("ix").index_only
    for session in held:
        txn = session.txn
        for key in KEYS[::4]:
            assert router.select(txn, "ix", (key,)) == [
                hit.row for _shard, hit in router.select_hits_tagged(
                    txn, "ix", (key,))], key
        for lo, hi in RANGES:
            tagged = router.range_hits_tagged(txn, "ix", lo, hi)
            handles = [hit.row for _shard, hit in tagged]
            assert router.range_select(txn, "ix", lo, hi) == handles
            if not index_only:
                continue
            plan = router.plan_scan("ix", lo, hi)
            slices = router.pull_index_slices(txn, "ix", plan.legs, 10 ** 6)
            legs = [[(leg.shard, hit) for hit in hits]
                    for leg, (hits, _resume) in zip(plan.legs, slices)]
            in_order = sorted((pair for pulled in legs for pair in pulled),
                              key=lambda pair: (pair[1].key, pair[0]))
            merges = len(plan.legs) > 1
            assert router.fetch_rows(txn, "ix", in_order,
                                     merged=merges) == handles
            for pulled in legs:     # one-shard chunks, residue or not
                shard = pulled[0][0] if pulled else None
                assert router.fetch_rows(txn, "ix", pulled,
                                         merged=merges) == [
                    hit.row for k, hit in tagged if k == shard]
        for lo, _hi in RANGES:
            handles = [hit.row for _shard, hit in router.range_hits_tagged(
                txn, "ix", lo, None)]
            for limit in LIMITS:
                got = session.scan_limit("ix", lo, limit)
                assert got == handles[:max(limit, 0)], (lo, limit)
        session.commit()
    server.close()
