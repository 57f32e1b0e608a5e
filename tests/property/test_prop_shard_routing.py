"""Property tests: shard-key routing and the buffered sliced scan are
invisible (DESIGN.md §16.1, §16.6).

The rule under test — *a statement is sent to a shard only if that shard
can own a matching row, and a hit crosses the router once* — must never
change an answer.  The reference is a single-node
:class:`~repro.engine.database.Database` driven through the identical
history (no retained scatter path).  Every example draws:

* a shard key that the composite index keys cover as a **prefix**
  (``a`` / ``a, b`` under ``ix_abc``), in the **middle** (``b``), at the
  **end** (``a`` under ``ix_ca``) or **not at all** (``d``), and — for
  ``a`` — an index that *equals* it (``ix_a``, with long duplicate-key
  runs);
* a starting slot layout: the round-robin deal, or an arbitrary owner
  table that may leave shards idle;
* a DML history over a preloaded table (inserts, non-key updates,
  shard-key-changing moves, deletes, multi-row keyed DML through a
  secondary index, aborts, ``move_slot`` rebalances,
  held snapshots);
* a final forced shuffle whose first copy-out rebuild raises, leaving
  the moved index records behind on their source shards as **residue**
  (the post-flip crash window of §16.4).

Then point reads, pinned / unpinned / exclusive / ``TOP``-bounded ranges
and ``batch_scan`` at several slice sizes are compared with the oracle
through the final snapshot and through every held one.
"""

from contextlib import suppress
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.tree import MVPBT
from repro.engine.database import Database
from repro.index.base import TOP
from repro.serve import ServeConfig
from repro.shard import HashPartitioner, ShardConfig, ShardedDatabase

pytestmark = pytest.mark.shard

TABLE = "t"
A, B, C, D = range(3), range(2), range(3), range(4)
#: index name -> columns; (a, b, c) identifies a row
INDEXES = {"ix_abc": ["a", "b", "c"], "ix_ca": ["c", "a"], "ix_a": ["a"]}
COLUMNS = {"a": 0, "b": 1, "c": 2, "d": 3}
SHARD_KEYS = [("a",), ("a", "b"), ("b",), ("d",)]
SLICES = [1, 2, 7, 256]

ident_st = st.tuples(st.sampled_from(A), st.sampled_from(B),
                     st.sampled_from(C))
op_st = st.one_of(
    st.tuples(st.just("insert"), ident_st, st.sampled_from(D),
              st.text("abc", min_size=1, max_size=2)),
    st.tuples(st.just("update"), ident_st,
              st.text("xyz", min_size=1, max_size=2)),
    st.tuples(st.just("move"), ident_st,
              st.sampled_from(["a", "b", "d"]), st.integers(0, 3)),
    st.tuples(st.just("delete"), ident_st),
    st.tuples(st.just("update_ca"), st.sampled_from(C), st.sampled_from(A),
              st.text("pq", min_size=1, max_size=2)),
    st.tuples(st.just("delete_ca"), st.sampled_from(C), st.sampled_from(A)),
)
step_st = st.fixed_dictionaries({
    "outcome": st.sampled_from(["commit", "commit", "commit", "abort"]),
    "ops": st.lists(op_st, min_size=1, max_size=6),
    "hold": st.booleans(),
    "flush": st.booleans(),
    "rebalance": st.one_of(st.none(), st.tuples(
        st.integers(0, 63), st.integers(0, 7))),
})
history_st = st.lists(step_st, min_size=1, max_size=8)
#: an owner per slot, reduced mod the shard count
layout_st = st.lists(st.integers(0, 7), min_size=64, max_size=64)


def build_pair(shards, shard_key, owners=None):
    config = EngineConfig(durability=False, page_size=2048, extent_pages=8,
                          partition_buffer_bytes=4096,
                          buffer_pool_pages=128)
    router = ShardedDatabase(config, ShardConfig(shards=shards,
                                                 hash_slots=64))
    oracle = Database(config)
    columns = [("a", "int"), ("b", "int"), ("c", "int"), ("d", "int"),
               ("val", "str")]
    router.create_table(TABLE, columns, "sias", shard_key=list(shard_key))
    oracle.create_table(TABLE, columns, "sias")
    for db in (router, oracle):
        for name, cols in INDEXES.items():
            db.create_index(name, TABLE, cols, kind="mvpbt",
                            enable_gc=False)
    if owners is not None:
        router.rebalance(HashPartitioner(
            shards, [o % shards for o in owners], slots=64))
    return router, oracle


def both(router, oracle, rtxn, otxn, method, *args):
    """Run one keyed DML statement on both engines; counts must agree."""
    got = getattr(router, method)(rtxn, *args)
    want = getattr(oracle, method)(otxn, *args)
    assert got == want, f"{method}{args}: router {got} != oracle {want}"


def preload(router, oracle):
    """Two thirds of the key universe, so merges and slices have work
    even under a short drawn history."""
    live = {}
    rtxn, otxn = router.begin(), oracle.begin()
    for n, ident in enumerate((a, b, c) for a in A for b in B for c in C):
        if n % 3:
            row = (*ident, n % len(D), f"p{n}")
            router.insert(rtxn, TABLE, row)
            oracle.insert(otxn, TABLE, row)
            live[ident] = row
    rtxn.commit()
    otxn.commit()
    return live


def run_history(router, oracle, server, history):
    shards = len(router.shards)
    live: dict[tuple, tuple] = preload(router, oracle)  # (a, b, c) -> row
    held = []                         # (session, oracle txn)
    for step in history:
        if step["hold"]:
            session = server.session()
            session.begin()
            held.append((session, oracle.begin()))
        if step["rebalance"] is not None and shards > 1:
            slot, dst_raw = step["rebalance"]
            router.move_slot(slot, dst_raw % shards)
        rtxn, otxn = router.begin(), oracle.begin()
        pending = dict(live)
        for op in step["ops"]:
            kind = op[0]
            if kind == "insert":
                ident, d, val = op[1:]
                if ident in pending:
                    continue
                row = (*ident, d, val)
                router.insert(rtxn, TABLE, row)
                oracle.insert(otxn, TABLE, row)
                pending[ident] = row
            elif kind == "update":
                ident, val = op[1:]
                both(router, oracle, rtxn, otxn, "update_by_key", "ix_abc",
                     ident, {"val": val})
                if ident in pending:
                    pending[ident] = (*pending[ident][:4], val)
            elif kind == "move":
                ident, column, value = op[1:]
                if ident not in pending:
                    continue
                row = list(pending[ident])
                row[COLUMNS[column]] = value
                if tuple(row[:3]) in pending and tuple(row[:3]) != ident:
                    continue
                both(router, oracle, rtxn, otxn, "update_by_key", "ix_abc",
                     ident, {column: value})
                del pending[ident]
                pending[tuple(row[:3])] = tuple(row)
            elif kind == "delete":
                both(router, oracle, rtxn, otxn, "delete_by_key", "ix_abc",
                     op[1])
                pending.pop(op[1], None)
            elif kind == "update_ca":
                c, a, val = op[1:]
                both(router, oracle, rtxn, otxn, "update_by_key", "ix_ca",
                     (c, a), {"val": val})
                for ident, row in pending.items():
                    if (ident[2], ident[0]) == (c, a):
                        pending[ident] = (*row[:4], val)
            else:
                c, a = op[1:]
                both(router, oracle, rtxn, otxn, "delete_by_key", "ix_ca",
                     (c, a))
                pending = {ident: row for ident, row in pending.items()
                           if (ident[2], ident[0]) != (c, a)}
        if step["outcome"] == "commit":
            rtxn.commit()
            otxn.commit()
            live = pending
        else:
            rtxn.abort()
            otxn.abort()
        if step["flush"]:
            router.flush_all()
            oracle.flush_all()
    return live, held


class _CrashAfterFlip(Exception):
    """The copy-out rebuild a crash cut short."""


def rebalance_interrupted_after_flip(router, new):
    """``router.rebalance(new)`` as a crash right after the layout flip
    leaves it: the first copy-out rebuild raises (and the error is
    swallowed), so every source tree keeps its moved-away records as
    residue only the ownership filter hides."""
    old = router.partitioner
    rebuild = MVPBT.rebuild_contents

    def until_the_flip(tree, records):
        if router.partitioner is not old:
            raise _CrashAfterFlip
        rebuild(tree, records)

    with mock.patch.object(MVPBT, "rebuild_contents", until_the_flip), \
            suppress(_CrashAfterFlip):
        router.rebalance(new)


def shuffle_leaving_residue(router, seed):
    """One forced full shuffle that 'crashes' after the layout flip
    (:func:`rebalance_interrupted_after_flip`)."""
    shards = len(router.shards)
    if shards == 1:
        return
    new = router.partitioner
    for slot in range(new.slots):
        new = new.move_slot(slot, (slot * 2654435761 + seed) % shards)
    rebalance_interrupted_after_flip(router, new)


def ranges_for(columns):
    """(lo, hi, lo_incl, hi_incl) cases over one index: full, pinned
    prefixes of every length (TOP-bounded and point), unpinned, exclusive
    and half-open."""
    domains = [{"a": A, "b": B, "c": C}[col] for col in columns]
    cases = [(None, None, True, True)]
    first = domains[0]
    for v in first:
        cases.append(((v,), (v, TOP), True, True))
        cases.append(((v,), (v, TOP), False, False))
        cases.append(((v,), None, True, True))
        cases.append((None, (v,), True, False))
    cases.append(((first[0],), (first[-1],), False, True))
    if len(domains) > 1:
        for v in first:
            for w in domains[1]:
                cases.append(((v, w), (v, w, TOP), True, True))
                cases.append(((v, w), (v, w), True, True))
                cases.append(((v, w), (v, w), True, False))
            cases.append(((v, domains[1][0]), (v, domains[1][-1], TOP),
                          True, True))
    if len(domains) > 2:
        v, w = first[-1], domains[1][0]
        cases.append(((v, w, domains[2][0]), (v, w, domains[2][1], TOP),
                      True, True))
        cases.append(((v, w, domains[2][1]), (v, w, TOP), False, True))
    return cases


RANGES = {name: ranges_for(cols) for name, cols in INDEXES.items()}


def assert_same_reads(router, oracle, session, otxn, context):
    rtxn = session.txn
    for name, cols in INDEXES.items():
        offsets = [COLUMNS[col] for col in cols]

        def key_of(row):
            return tuple(row[p] for p in offsets)

        for lo, hi, lo_incl, hi_incl in RANGES[name]:
            want = oracle.range_select(otxn, name, lo, hi, lo_incl=lo_incl,
                                       hi_incl=hi_incl)
            label = f"{context}: {name} {lo}..{hi} {lo_incl}/{hi_incl}"
            got = router.range_select(rtxn, name, lo, hi, lo_incl=lo_incl,
                                      hi_incl=hi_incl)
            keys = [key_of(row) for row in got]
            assert keys == sorted(keys), f"{label}: not in key order"
            assert sorted(got) == sorted(want), label
            if lo == hi and lo is not None and lo_incl and hi_incl \
                    and len(lo) == len(cols):
                assert sorted(router.select(rtxn, name, lo)) == sorted(
                    oracle.select(otxn, name, lo)), f"{label}: point"
        # the LIMIT scan cuts in each shard's index before the ownership
        # filter has seen a row: residue must make it re-pull, not run short
        in_order = sorted(key_of(row) for row in oracle.range_select(
            otxn, name, None, None))
        for limit in (1, 3, 50):
            got = session.scan_limit(name, None, limit)
            assert [key_of(row) for row in got] == in_order[:limit], (
                f"{context}: scan_limit {name} limit={limit}")
        # the sliced scan: every range at one slice size each, cycling,
        # and the full range at all of them
        for i, (lo, hi, lo_incl, hi_incl) in enumerate(RANGES[name]):
            sizes = SLICES if lo is None and hi is None else [
                SLICES[i % len(SLICES)]]
            want = sorted(oracle.range_select(
                otxn, name, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl))
            for slice_rows in sizes:
                got = list(session.batch_scan(
                    name, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl,
                    slice_rows=slice_rows))
                keys = [key_of(row) for row in got]
                label = (f"{context}: batch_scan {name} {lo}..{hi} "
                         f"{lo_incl}/{hi_incl} slice={slice_rows}")
                assert keys == sorted(keys), f"{label}: not in key order"
                assert sorted(got) == want, label


def check_routing(shards, shard_key, history, seed, owners=None):
    router, oracle = build_pair(shards, shard_key, owners)
    server = router.serve(ServeConfig())
    live, held = run_history(router, oracle, server, history)
    final = server.session()
    final.begin()
    held.append((final, oracle.begin()))
    shuffle_leaving_residue(router, seed)
    for session, otxn in held:
        assert_same_reads(router, oracle, session, otxn,
                          f"snapshot txid={session.txn.id}")
        otxn.abort()
    got = sorted(router.range_select(final.txn, "ix_abc", None, None))
    assert got == sorted(live.values())
    server.close()


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
@settings(max_examples=10, deadline=None)
@given(history=history_st, shard_key=st.sampled_from(SHARD_KEYS),
       seed=st.integers(0, 2**16))
def test_hash_routing_equals_oracle(shards, history, shard_key, seed):
    check_routing(shards, shard_key, history, seed)


@pytest.mark.parametrize("shards", [2, 4, 8])
@settings(max_examples=10, deadline=None)
@given(history=history_st, shard_key=st.sampled_from(SHARD_KEYS),
       seed=st.integers(0, 2**16), owners=layout_st)
def test_any_slot_layout_routing_equals_oracle(shards, history, shard_key,
                                               seed, owners):
    """Routing starts from an arbitrary owner table — skewed, some
    shards owning no slot — instead of the round-robin deal."""
    check_routing(shards, shard_key, history, seed, owners)


def test_scan_limit_repulls_past_residue_deleted_at_its_owner():
    """Residue whose authoritative copy was deleted after the flip has no
    counterpart anywhere in the global order: a shard's first ``limit``
    index hits can then all be residue while it still owns rows of the
    answer, and only the fetched rows tell."""
    router, oracle = build_pair(4, ("a", "b"))
    preload(router, oracle)
    shuffle_leaving_residue(router, seed=1)
    rtxn, otxn = router.begin(), oracle.begin()
    for a, b in ((0, 0), (0, 1), (1, 0)):
        for c in C:
            both(router, oracle, rtxn, otxn, "delete_by_key", "ix_abc",
                 (a, b, c))
    router.commit(rtxn)
    otxn.commit()
    otxn = oracle.begin()
    in_order = [row[:3] for row in oracle.range_select(otxn, "ix_abc",
                                                      None, None)]
    assert len(in_order) >= 4
    with router.serve() as server, server.session() as session:
        session.begin()
        for limit in (1, 2, 3, 50):
            got = session.scan_limit("ix_abc", None, limit)
            assert [row[:3] for row in got] == in_order[:limit], limit
        session.commit()
