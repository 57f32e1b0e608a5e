"""Property tests: the scan pipeline equals the record-at-a-time reference.

``MVPBT.scan_chunks`` — the page-batched merge with partition filters,
zone-map pruning, fence promises and batch visibility — must be
extensionally identical to the per-record cascade of
``tests/reference_scan.py``: under arbitrary interleavings of inserts,
updates, deletes, evictions and held snapshots, every range scan (any
bounds, any inclusivity, any ``limit``) must return byte-identical
``SearchHit`` lists — across all three table storage models and on
databases recovered from a random crash point.  Composite-key trees add
the fixed-prefix ranges their prefix bloom filters gate.  The
``oblivious`` cases run the same histories over a version-oblivious tree
(``index_only_visibility=False``), whose scans and point lookups must
equal the reference's candidates mode.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.partition_buffer import PartitionBuffer
from repro.buffer.pool import BufferPool
from repro.config import EngineConfig
from repro.core.tree import MVPBT
from repro.engine.database import Database
from repro.errors import DeviceCrashError
from repro.index.base import TOP
from repro.sim.clock import SimClock
from repro.sim.device import FaultPlan, SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.txn.manager import TransactionManager

from tests.crash.harness import recover_and_check, run_workload
from tests.reference_scan import reference_scan

KEYS = list(range(14))

operation = st.tuples(
    st.sampled_from(KEYS),
    st.sampled_from(["insert", "update", "delete", "evict"]),
    st.booleans(),                       # hold a snapshot before this op?
)

#: (tree options, reference candidates mode) of the two read strategies
STRATEGIES = pytest.mark.parametrize(
    "opts,candidates",
    [({}, False),
     ({"index_only_visibility": False, "enable_gc": False}, True)],
    ids=["index-only", "oblivious"])

bounds = st.tuples(
    st.one_of(st.none(), st.sampled_from(KEYS)),
    st.one_of(st.none(), st.sampled_from(KEYS)),
    st.booleans(),                       # lo inclusive?
    st.booleans(),                       # hi inclusive?
)


def build_tree(**opts):
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    mgr = TransactionManager(clock)
    tree = MVPBT("bs", PageFile("bs", device, 2048, 8), BufferPool(256),
                 PartitionBuffer(1 << 22), mgr, **opts)
    return mgr, tree


def apply_ops(mgr, tree, ops):
    """Run ``(key, action, hold a snapshot first?)`` ops, one transaction
    each; an int key stands for the one-column key ``(key,)``."""
    live: dict[object, tuple[RecordID, int]] = {}
    next_vid = 1
    next_rid = 0
    held = []
    for key, action, snap_before in ops:
        if snap_before:
            held.append(mgr.begin())
        txn = mgr.begin()
        ikey = key if isinstance(key, tuple) else (key,)
        if action == "insert" and key not in live:
            next_rid += 1
            rid = RecordID(0, next_rid)
            tree.insert(txn, ikey, rid, vid=next_vid)
            live[key] = (rid, next_vid)
            next_vid += 1
        elif action == "update" and key in live:
            old_rid, vid = live[key]
            next_rid += 1
            rid = RecordID(0, next_rid)
            tree.update_nonkey(txn, ikey, rid, old_rid, vid)
            live[key] = (rid, vid)
        elif action == "delete" and key in live:
            old_rid, vid = live[key]
            tree.delete(txn, ikey, old_rid, vid)
            del live[key]
        elif action == "evict":
            tree.evict_partition()
        elif action == "merge":
            tree.merge_partitions()
        txn.commit()
    held.append(mgr.begin())
    return held


def both_paths(tree, txn, lo, hi, lo_incl, hi_incl, limit=None,
               candidates=False):
    """(pipeline hits, reference hits) for one scan on one tree; a
    ``limit`` runs it as ``scan_limit``."""
    if limit is None:
        batched = tree.range_scan(txn, lo, hi,
                                  lo_incl=lo_incl, hi_incl=hi_incl)
    else:
        batched = tree.scan_limit(txn, lo, limit, hi,
                                  lo_incl=lo_incl, hi_incl=hi_incl)
    return batched, reference_scan(tree, txn, lo, hi, lo_incl=lo_incl,
                                   hi_incl=hi_incl, limit=limit,
                                   candidates=candidates)


def assert_search_per_key(tree, txn, keys, candidates):
    """Every point lookup equals the reference scan of its one key."""
    for key in keys:
        assert tree.search(txn, (key,)) == reference_scan(
            tree, txn, (key,), (key,), candidates=candidates)


@STRATEGIES
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operation, min_size=1, max_size=40),
       scan=bounds)
def test_batch_equals_record_path_under_arbitrary_histories(
        opts, candidates, ops, scan):
    lo, hi, lo_incl, hi_incl = scan
    mgr, tree = build_tree(**opts)
    held = apply_ops(mgr, tree, ops)
    for txn in held:
        batched, record = both_paths(
            tree, txn,
            (lo,) if lo is not None else None,
            (hi,) if hi is not None else None, lo_incl, hi_incl,
            candidates=candidates)
        assert batched == record
        assert_search_per_key(tree, txn, KEYS, candidates)


@STRATEGIES
@settings(max_examples=25, deadline=None)
@given(ops=st.lists(operation, min_size=5, max_size=40))
def test_batch_equals_record_path_with_reconciled_sets(opts, candidates,
                                                       ops):
    """Reconciliation produces REGULAR_SET records whose batch emission
    (set spreading, per-entry anti probes) must match the reference's."""
    mgr, tree = build_tree(reconcile=True, **opts)
    held = apply_ops(mgr, tree, ops)
    tree.merge_partitions()
    for txn in held:
        batched, record = both_paths(tree, txn, None, None, True, True,
                                     candidates=candidates)
        assert batched == record
        assert_search_per_key(tree, txn, KEYS, candidates)


@STRATEGIES
@settings(max_examples=20, deadline=None)
@given(storage=st.sampled_from(["heap", "sias", "delta"]),
       scan=bounds)
def test_batch_equals_record_path_across_storage_models(opts, candidates,
                                                        storage, scan):
    """The scripted crash-harness workload (no fault) through the full
    engine, on every table storage model."""
    lo, hi, lo_incl, hi_incl = scan
    run = run_workload(storage=storage, index_only_visibility=not candidates)
    assert not run.crashed
    tree = run.db.catalog.index("ix").mvpbt
    txn = run.db.begin()
    batched, record = both_paths(
        tree, txn,
        (lo,) if lo is not None else None,
        (hi,) if hi is not None else None, lo_incl, hi_incl,
        candidates=candidates)
    assert batched == record
    assert_search_per_key(tree, txn, range(70), candidates)
    txn.commit()


@settings(max_examples=15, deadline=None)
@given(fail_at=st.integers(min_value=1, max_value=400),
       storage=st.sampled_from(["heap", "sias", "delta"]))
def test_batch_equals_record_path_after_crash_recovery(fail_at, storage):
    """Kill the device at a random I/O index, recover, then scan the
    recovered tree against the reference: restored partitions (zone maps
    re-attached from the manifest) must prune without changing answers."""
    run = run_workload(FaultPlan(fail_at=fail_at), storage=storage)
    if not run.crashed:
        return      # workload finished before the fault index
    recovered = recover_and_check(run, context=f"fail_at={fail_at}")
    tree = recovered.catalog.index("ix").mvpbt
    txn = recovered.begin()
    for lo, hi in ((None, None), ((10,), (45,)), ((60,), (61,))):
        batched, record = both_paths(tree, txn, lo, hi, True, True)
        assert batched == record
    txn.commit()


# ------------------------------------------- lazy sources and LIMIT cuts
#
# The merge orders a persisted source by the fence key of a page it has
# not loaded, and a LIMIT ends the stream inside a chunk.  Both only show
# on trees whose partitions span several pages: few distinct keys, many
# versions per key (duplicate runs crossing page fences), snapshots held
# from before most of the history (whole pages zone-skipped).

DUP_KEYS = list(range(5))

dup_operation = st.tuples(
    st.sampled_from(DUP_KEYS),
    st.sampled_from(["insert", "insert", "insert", "update", "delete",
                     "evict"]),
    st.booleans(),                       # hold a snapshot before this op?
)


def build_paged_tree(**opts):
    """256-byte leaf pages: a handful of records each."""
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    mgr = TransactionManager(clock)
    tree = MVPBT("pg", PageFile("pg", device, 256, 4), BufferPool(256),
                 PartitionBuffer(1 << 22), mgr, **opts)
    return mgr, tree


def apply_dup_ops(mgr, tree, ops):
    """Like :func:`apply_ops`, but ``insert`` always adds one more tuple
    under the key, so keys carry runs of duplicates; ``move`` updates a
    tuple's key to the next key (wrapping round)."""
    live: dict[int, list[tuple[RecordID, int]]] = {k: [] for k in DUP_KEYS}
    next_id = 0
    held = []
    for key, action, snap_before in ops:
        if snap_before:
            held.append(mgr.begin())
        txn = mgr.begin()
        if action == "insert":
            next_id += 1
            rid = RecordID(0, next_id)
            tree.insert(txn, (key,), rid, vid=next_id)
            live[key].append((rid, next_id))
        elif action == "update" and live[key]:
            old_rid, vid = live[key].pop(0)
            next_id += 1
            rid = RecordID(0, next_id)
            tree.update_nonkey(txn, (key,), rid, old_rid, vid)
            live[key].append((rid, vid))
        elif action == "move" and live[key]:
            old_rid, vid = live[key].pop(0)
            next_id += 1
            rid = RecordID(0, next_id)
            dest = (key + 1) % len(DUP_KEYS)
            tree.update_key(txn, (key,), (dest,), rid, old_rid, vid)
            live[dest].append((rid, vid))
        elif action == "delete" and live[key]:
            old_rid, vid = live[key].pop(0)
            tree.delete(txn, (key,), old_rid, vid)
        elif action == "evict":
            tree.evict_partition()
        elif action == "merge":
            tree.merge_partitions()
        txn.commit()
    held.append(mgr.begin())
    return held


dup_bounds = st.tuples(
    st.one_of(st.none(), st.sampled_from(DUP_KEYS)),
    st.one_of(st.none(), st.sampled_from(DUP_KEYS)),
    st.booleans(), st.booleans())


@STRATEGIES
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(dup_operation, min_size=20, max_size=120),
       scan=dup_bounds)
def test_batch_equals_record_path_over_paged_duplicate_runs(
        opts, candidates, ops, scan):
    lo, hi, lo_incl, hi_incl = scan
    lo = (lo,) if lo is not None else None
    hi = (hi,) if hi is not None else None
    mgr, tree = build_paged_tree(**opts)
    held = apply_dup_ops(mgr, tree, ops)
    for txn in held:
        full, record = both_paths(tree, txn, lo, hi, lo_incl, hi_incl,
                                  candidates=candidates)
        assert full == record
        for limit in (1, 7, 100):
            batched, record = both_paths(tree, txn, lo, hi, lo_incl,
                                         hi_incl, limit=limit,
                                         candidates=candidates)
            assert batched == record == full[:limit]
        assert_search_per_key(tree, txn, DUP_KEYS, candidates)


limit_operation = st.tuples(
    st.sampled_from(DUP_KEYS),
    st.sampled_from(["insert", "insert", "insert", "update", "move",
                     "delete", "evict", "evict", "merge"]),
    st.booleans(),                       # hold a snapshot before this op?
)


@STRATEGIES
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(limit_operation, min_size=20, max_size=100),
       scan=dup_bounds)
def test_limit_scan_classifies_a_growing_prefix(opts, candidates, ops,
                                                scan):
    """Every LIMIT is a prefix of the full scan, and the classifier stops
    at it: the records a ``scan_limit(n)`` classifies never shrink as
    ``n`` grows and never outnumber the full scan's.  Duplicate runs
    reconcile into set records at eviction, so cuts land inside them."""
    lo, hi, lo_incl, hi_incl = scan
    lo = (lo,) if lo is not None else None
    hi = (hi,) if hi is not None else None
    mgr, tree = build_paged_tree(**opts)
    held = apply_dup_ops(mgr, tree, ops)
    stats = tree.stats

    def checked(scan_call):
        before = stats.records_checked
        hits = scan_call()
        return hits, stats.records_checked - before

    for txn in held:
        full, full_checked = checked(lambda: tree.range_scan(
            txn, lo, hi, lo_incl=lo_incl, hi_incl=hi_incl))
        last = 0
        for n in range(1, len(full) + 2):
            hits, now = checked(lambda: tree.scan_limit(
                txn, lo, n, hi, lo_incl=lo_incl, hi_incl=hi_incl))
            assert hits == full[:n]
            assert last <= now <= full_checked
            last = now
        assert last == full_checked


def test_fence_promises_on_duplicate_runs_and_zone_skipped_pages():
    """The deterministic worst case for head-key-from-fence: every page of
    every partition starts with the same few keys, an old snapshot skips
    whole pages by zone map, and ``lo`` is exclusive on a fence key."""
    mgr, tree = build_paged_tree()
    ops = []
    for round_no in range(4):
        # one snapshot from the middle of round 1: the partition's pages
        # of keys >= 2 then hold nothing it can see
        ops += [(key, "insert", (round_no, key, nth) == (1, 2, 0))
                for key in DUP_KEYS for nth in range(9)]
        ops += [(key, "update", False) for key in DUP_KEYS for _ in range(3)]
        ops.append((0, "evict", False))
    held = apply_dup_ops(mgr, tree, ops)
    parts = tree.persisted_partitions
    assert len(parts) == 4 and all(p.run.page_count >= 4 for p in parts)
    assert any(len(set(p.run.fence_keys)) < p.run.page_count for p in parts)
    old, new = held[0], held[-1]
    skipped = tree.stats.pages_skipped_mints
    for txn in (old, new):
        for lo, hi, lo_incl, hi_incl in (
                (None, None, True, True), ((2,), None, False, True),
                ((2,), (3,), True, False), ((0,), (4,), False, False)):
            full, record = both_paths(tree, txn, lo, hi, lo_incl, hi_incl)
            assert full == record and (txn is old or full)
            for limit in (1, 7, 100):
                batched, record = both_paths(tree, txn, lo, hi, lo_incl,
                                             hi_incl, limit=limit)
                assert batched == record == full[:limit]
    assert tree.stats.pages_skipped_mints > skipped


# ------------------------------------- composite keys and prefix filters
#
# Every persisted partition of a composite-key tree carries a prefix bloom
# filter over all key columns but the last, and a range whose bounds fix
# that prefix skips the partitions the filter rules out.  Keys here have
# arity 3 over a sparse prefix space, so most partitions lack most
# prefixes: the scans below are the ones the filter gates.

PREFIXES = [(a, b) for a in (0, 2, 5) for b in (1, 4)]
COMPOSITE_KEYS = [p + (c,) for p in PREFIXES for c in range(3)]
#: prefixes probed: the stored ones plus absent ones between them
PROBE_PREFIXES = PREFIXES + [(0, 2), (2, 0), (3, 1), (5, 3)]

composite_operation = st.tuples(
    st.sampled_from(COMPOSITE_KEYS),
    st.sampled_from(["insert", "insert", "insert", "update", "delete",
                     "evict", "evict", "merge"]),
    st.booleans(),                       # hold a snapshot before this op?
)

prefix_scan = st.tuples(
    st.sampled_from(PROBE_PREFIXES),
    st.one_of(st.none(), st.integers(0, 2)),   # None: lo is the bare prefix
    st.one_of(st.none(), st.integers(0, 2)),   # None: hi is (prefix, TOP)
    st.booleans(),                       # lo inclusive?
    st.booleans(),                       # hi inclusive?
)


def prefix_range(scan):
    """``(lo, hi, lo_incl, hi_incl)`` of one drawn fixed-prefix scan."""
    prefix, lo_last, hi_last, lo_incl, hi_incl = scan
    lo = prefix if lo_last is None else prefix + (lo_last,)
    hi = prefix + ((TOP,) if hi_last is None else (hi_last,))
    return lo, hi, lo_incl, hi_incl


def assert_prefix_filters(tree, width):
    parts = tree.persisted_partitions
    assert all(p.prefix_bloom is not None
               and p.prefix_bloom.prefix_columns == width for p in parts)


@STRATEGIES
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(composite_operation, min_size=20, max_size=80),
       scans=st.lists(prefix_scan, min_size=1, max_size=4))
def test_fixed_prefix_scans_equal_record_path_on_composite_keys(
        opts, candidates, ops, scans):
    mgr, tree = build_paged_tree(**opts)
    held = apply_ops(mgr, tree, ops)
    assert_prefix_filters(tree, 2)
    for txn in held:
        for scan in scans:
            lo, hi, lo_incl, hi_incl = prefix_range(scan)
            batched, record = both_paths(tree, txn, lo, hi, lo_incl, hi_incl,
                                         candidates=candidates)
            assert batched == record


def test_fixed_prefix_scans_skip_partitions_without_the_prefix():
    """The property above is not vacuous: its shape of history makes the
    filters turn partitions away."""
    mgr, tree = build_paged_tree()
    ops = [(key, "insert", False) for key in COMPOSITE_KEYS[:6]]
    ops.append((0, "evict", False))
    ops += [(key, "insert", False) for key in COMPOSITE_KEYS[-6:]]
    ops.append((0, "evict", False))
    held = apply_ops(mgr, tree, ops)
    reader = held[-1]
    before = tree.stats.partitions_skipped_bloom
    for prefix in PROBE_PREFIXES:
        lo, hi, lo_incl, hi_incl = prefix_range((prefix, None, None,
                                                 True, False))
        batched, record = both_paths(tree, reader, lo, hi, lo_incl, hi_incl)
        assert batched == record
    assert tree.stats.partitions_skipped_bloom > before


def composite_db():
    """A durable database whose one index has arity-3 keys, small enough
    to evict and merge constantly."""
    db = Database(EngineConfig(
        durability=True, page_size=512, extent_pages=8,
        partition_buffer_bytes=768, buffer_pool_pages=64,
        manifest_slot_pages=6))
    db.create_table("t", [("a", "int"), ("b", "int"), ("c", "int"),
                          ("v", "str")])
    db.create_index("ix", "t", ["a", "b", "c"], kind="mvpbt",
                    enable_gc=False, max_partitions=2, merge_fanout=2)
    return db


def run_composite(db, ops):
    """Apply ``(key, action)`` ops, one committed transaction each; stops
    at the first device crash."""
    live = set()
    try:
        for nth, (key, action) in enumerate(ops):
            txn = db.begin()
            if action == "insert" and key not in live:
                db.insert(txn, "t", key + (f"v{nth}",))
                live.add(key)
            elif action == "update" and key in live:
                db.update_by_key(txn, "ix", key, {"v": f"u{nth}"})
            elif action == "delete" and key in live:
                db.delete_by_key(txn, "ix", key)
                live.discard(key)
            txn.commit()
    except DeviceCrashError:
        pass


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(COMPOSITE_KEYS),
                              st.sampled_from(["insert", "insert",
                                               "update", "delete"])),
                    min_size=40, max_size=100),
       fail_at=st.integers(min_value=1, max_value=150),
       scans=st.lists(prefix_scan, min_size=1, max_size=4))
def test_fixed_prefix_scans_equal_record_path_after_recovery(ops, fail_at,
                                                             scans):
    """Kill the device at a random I/O index (a run that ends first
    restarts cleanly), recover, then run fixed-prefix scans: the restored
    prefix filters must gate without changing answers."""
    db = composite_db()
    db.device.set_fault_plan(FaultPlan(fail_at=fail_at))
    run_composite(db, ops)
    recovered = Database.recover(db)
    tree = recovered.catalog.index("ix").mvpbt
    assert_prefix_filters(tree, 2)
    txn = recovered.begin()
    for scan in scans + [(p, None, None, True, False)
                         for p in PROBE_PREFIXES]:
        lo, hi, lo_incl, hi_incl = prefix_range(scan)
        batched, record = both_paths(tree, txn, lo, hi, lo_incl, hi_incl)
        assert batched == record
    txn.commit()
