"""Unit tests for the executor's two visibility paths."""


from repro.config import EngineConfig
from repro.engine import Database


def setup(kind="mvpbt", reference="physical", storage="sias", **opts):
    db = Database(EngineConfig(buffer_pool_pages=128))
    db.create_table("r", [("a", "int"), ("b", "str")], storage=storage)
    db.create_index("ix", "r", ["a"], kind=kind, reference=reference, **opts)
    return db


class TestIndexOnlyPath:
    def test_lookup_returns_row_hits(self):
        db = setup()
        t = db.begin()
        db.insert(t, "r", (1, "x"))
        t.commit()
        r = db.begin()
        hits = db.executor.lookup(r, db.catalog.index("ix"), (1,))
        assert len(hits) == 1
        assert hits[0].row == (1, "x")
        assert hits[0].version.vid == 1

    def test_count_without_row_fetches(self):
        db = setup()
        t = db.begin()
        for i in range(10):
            db.insert(t, "r", (i, "x"))
        t.commit()
        db.flush_all()
        table_stats = db.pool.stats_for(db.catalog.table("r").file)
        before = table_stats.requests
        r = db.begin()
        assert db.executor.count(r, db.catalog.index("ix"), (2,), (5,)) == 4
        assert table_stats.requests == before

    def test_scan_fetches_rows_for_projection(self):
        db = setup()
        t = db.begin()
        for i in range(5):
            db.insert(t, "r", (i, f"v{i}"))
        t.commit()
        r = db.begin()
        hits = db.executor.scan(r, db.catalog.index("ix"), (1,), (3,))
        assert [h.row[1] for h in hits] == ["v1", "v2", "v3"]


class TestCandidatePath:
    def test_ablated_mvpbt_resolves_against_table(self):
        db = setup(index_only_visibility=False, enable_gc=False)
        t = db.begin()
        db.insert(t, "r", (1, "x"))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "ix", (1,), {"b": "y"})
        t2.commit()
        r = db.begin()
        hits = db.executor.lookup(r, db.catalog.index("ix"), (1,))
        assert len(hits) == 1              # deduped despite 2 candidates
        assert hits[0].row == (1, "y")

    def test_pbt_key_recheck(self):
        db = setup(kind="pbt")
        t = db.begin()
        db.insert(t, "r", (1, "x"))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "ix", (1,), {"a": 5})
        t2.commit()
        r = db.begin()
        # candidate at key 1 resolves to a version whose key is now 5
        assert db.executor.lookup(r, db.catalog.index("ix"), (1,)) == []
        hits = db.executor.lookup(r, db.catalog.index("ix"), (5,))
        assert [h.row for h in hits] == [(5, "x")]

    def test_logical_resolution_skips_dropped_vids(self):
        db = setup(kind="btree", reference="logical")
        t = db.begin()
        db.insert(t, "r", (1, "x"))
        t.commit()
        t2 = db.begin()
        db.delete_by_key(t2, "ix", (1,))
        t2.commit()
        db.vacuum("r")     # drops the chain and its VID
        r = db.begin()
        assert db.executor.lookup(r, db.catalog.index("ix"), (1,)) == []

    def test_heap_range_scan_recheck(self):
        db = setup(kind="btree", storage="heap")
        t = db.begin()
        for i in range(10):
            db.insert(t, "r", (i, "x"))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "ix", (3,), {"a": 30})   # leaves old entry
        t2.commit()
        r = db.begin()
        hits = db.executor.scan(r, db.catalog.index("ix"), (0,), (9,))
        assert sorted(h.row[0] for h in hits) == [0, 1, 2, 4, 5, 6, 7, 8, 9]


class TestRowHit:
    def test_row_property(self):
        db = setup()
        t = db.begin()
        db.insert(t, "r", (1, "x"))
        t.commit()
        r = db.begin()
        hit = db.executor.lookup(r, db.catalog.index("ix"), (1,))[0]
        assert hit.row == hit.version.data


class TestScanStream:
    """One LIMIT entry point for every read-path mode: ``limit`` cuts
    ``scan``'s rows into at most one chunk — whatever the index kind,
    with or without index-only visibility."""

    MODES = [
        dict(),
        dict(storage="heap"),
        dict(index_only_visibility=False, enable_gc=False),
        dict(kind="btree"),
        dict(storage="delta"),
    ]

    @staticmethod
    def history(db):
        t = db.begin()
        for i in range(40):
            db.insert(t, "r", (i, f"v{i}"))
        t.commit()
        t = db.begin()
        for i in range(0, 40, 3):
            db.update_by_key(t, "ix", (i,), {"b": f"w{i}"})
        db.delete_by_key(t, "ix", (7,))
        t.commit()

    def test_chunks_concatenate_to_scan_and_limit_cuts(self):
        expected = None
        for mode in self.MODES:
            db = setup(**mode)
            self.history(db)
            r = db.begin()
            info = db.catalog.index("ix")
            full = db.executor.scan(r, info, (5,), (30,), hi_incl=False)
            rows = [h.row for h in full]
            if expected is None:
                expected = rows
                assert len(rows) == 24        # 5..29 without the deleted 7
            assert rows == expected, mode
            for limit in (-1, 0, 1, 7, 100):  # below one reads nothing
                cut = list(db.executor.scan_stream(
                    r, info, (5,), (30,), hi_incl=False, limit=limit))
                assert len(cut) == (1 if limit > 0 else 0), (mode, limit)
                got = [row for c in cut for row in c]
                assert got == rows[:max(limit, 0)], (mode, limit)
