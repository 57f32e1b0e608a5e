"""Integration: the paper's Figure 2/10 scenario on every engine combination.

Every storage kind x index kind x reference mode must produce identical
query answers; only the costs differ — also for an index built over a
table that already holds history.  Every combination runs with the
observability layer enabled and ends with a registry-vs-engine invariant
check (``check_invariants``), so the matrix doubles as an accounting
cross-check: the obs counters must agree exactly with the engine's own
statistics on every path the matrix exercises.
"""

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.obs import ObsConfig, check_invariants

COMBINATIONS = [
    (storage, kind, ref)
    for storage in ("heap", "sias", "delta")
    for kind in ("btree", "pbt", "mvpbt")
    for ref in ("physical", "logical")
]


def assert_metrics_consistent(db):
    problems = check_invariants(db)
    assert problems == []
    cv = db.obs.registry.counter_value
    device = db.device.stats
    assert cv("device.bytes_read") == device.bytes_read
    assert cv("device.bytes_written") == device.bytes_written
    pool = db.pool.total_stats()
    assert (cv("buffer.pool.hits") + cv("buffer.pool.misses")
            == cv("buffer.pool.lookups") == pool.requests)


@pytest.mark.parametrize("storage,kind,ref", COMBINATIONS)
class TestFigure10Matrix:
    def _db(self, storage, kind, ref):
        db = Database(EngineConfig(buffer_pool_pages=128,
                                   obs=ObsConfig(enabled=True)))
        db.create_table("r", [("a", "int"), ("z", "str")], storage=storage)
        db.create_index("idx_a", "r", ["a"], kind=kind, reference=ref)
        return db

    def test_paper_lifecycle(self, storage, kind, ref):
        db = self._db(storage, kind, ref)
        tx0 = db.begin()
        db.insert(tx0, "r", (7, "V0"))
        tx0.commit()
        txr = db.begin()                        # long-running query TXR

        tx1 = db.begin()
        assert db.update_by_key(tx1, "idx_a", (7,), {"z": "V1"}) == 1
        tx1.commit()
        tx2 = db.begin()
        assert db.update_by_key(tx2, "idx_a", (7,), {"a": 1}) == 1
        tx2.commit()
        tx3 = db.begin()
        assert db.delete_by_key(tx3, "idx_a", (1,)) == 1
        tx3.commit()

        # the paper's COUNT(*) WHERE a <= 10 for TXR returns exactly 1
        assert db.count_range(txr, "idx_a", None, (10,)) == 1
        assert db.select(txr, "idx_a", (7,)) == [(7, "V0")]
        assert db.select(txr, "idx_a", (1,)) == []
        txr.commit()

        fresh = db.begin()
        assert db.count_range(fresh, "idx_a", None, (10,)) == 0
        fresh.commit()
        assert_metrics_consistent(db)

    def test_bulk_consistency_with_oracle(self, storage, kind, ref):
        db = self._db(storage, kind, ref)
        import random
        rng = random.Random(17)
        oracle: dict[int, str] = {}
        next_tag = 0
        for _ in range(300):
            op = rng.random()
            key = rng.randrange(40)
            t = db.begin()
            if op < 0.5:
                tag = f"t{next_tag}"
                next_tag += 1
                if key in oracle:
                    db.update_by_key(t, "idx_a", (key,), {"z": tag})
                else:
                    db.insert(t, "r", (key, tag))
                oracle[key] = tag
            elif op < 0.7 and key in oracle:
                db.delete_by_key(t, "idx_a", (key,))
                del oracle[key]
            else:
                rows = db.select(t, "idx_a", (key,))
                expected = ([(key, oracle[key])] if key in oracle else [])
                assert rows == expected, (storage, kind, ref, key)
            t.commit()
        reader = db.begin()
        all_rows = sorted(db.range_select(reader, "idx_a", None, None))
        assert all_rows == sorted((k, v) for k, v in oracle.items())
        reader.commit()
        assert_metrics_consistent(db)


ROWS = [(a, f"r{a}") for a in range(1, 7)]
#: after a non-key update of a=1, a key change 2 -> 20 and a delete of a=3
ROWS_AFTER = sorted([(1, "u1"), (20, "r2"), *ROWS[3:]])


@pytest.mark.parametrize("storage,kind,ref", COMBINATIONS)
@pytest.mark.parametrize("late", [False, True], ids=["first", "late"])
def test_index_over_history(storage, kind, ref, late):
    """An index built after committed history answers both a snapshot
    from before that history and one after it exactly as ``seq_scan``
    does, and as the same index built first.  A B-tree drives the DML,
    so a late logical index is the one that creates the indirection
    layer."""
    db = Database(EngineConfig(buffer_pool_pages=128,
                               obs=ObsConfig(enabled=True)))
    db.create_table("r", [("a", "int"), ("z", "str")], storage=storage)
    db.create_index("drv", "r", ["a"], kind="btree")
    if not late:
        db.create_index("idx", "r", ["a"], kind=kind, reference=ref)
    tx = db.begin()
    for row in ROWS:
        db.insert(tx, "r", row)
    tx.commit()
    before = db.begin()
    for change in (lambda t: db.update_by_key(t, "drv", (1,), {"z": "u1"}),
                   lambda t: db.update_by_key(t, "drv", (2,), {"a": 20}),
                   lambda t: db.delete_by_key(t, "drv", (3,))):
        tx = db.begin()
        assert change(tx) == 1
        tx.commit()
    if late:
        db.create_index("idx", "r", ["a"], kind=kind, reference=ref)
    after = db.begin()
    for snapshot, expected in ((before, ROWS), (after, ROWS_AFTER)):
        assert sorted(db.seq_scan(snapshot, "r")) == expected
        assert sorted(db.range_select(snapshot, "idx", None, None)) \
            == expected
        assert db.count_range(snapshot, "idx", None, None) == len(expected)
        for a in (*range(1, 7), 20):
            assert db.select(snapshot, "idx", (a,)) \
                == [row for row in expected if row[0] == a]
    before.commit()
    after.commit()
    assert_metrics_consistent(db)


@pytest.mark.parametrize("storage,kind,ref",
                         [c for c in COMBINATIONS if c[1] != "mvpbt"])
def test_late_index_has_the_live_entries(storage, kind, ref):
    """A version-oblivious index built over history holds the entries
    live maintenance gave the same index built first: none for a HOT or
    in-place update, so a late index costs no extra chain walks."""
    db = Database(EngineConfig(buffer_pool_pages=128))
    db.create_table("r", [("a", "int"), ("z", "str")], storage=storage)
    db.create_index("early", "r", ["a"], kind=kind, reference=ref)
    tx = db.begin()
    for a in range(50):
        db.insert(tx, "r", (a, "x"))
    tx.commit()
    for round_ in range(4):
        tx = db.begin()
        for a in range(50):
            db.update_by_key(tx, "early", (a,), {"z": f"v{round_}"})
        tx.commit()
    db.create_index("late", "r", ["a"], kind=kind, reference=ref)
    counts = [db.catalog.index(name).oblivious.entry_count()
              for name in ("early", "late")]
    assert counts[0] == counts[1]
