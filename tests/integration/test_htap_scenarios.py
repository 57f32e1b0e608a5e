"""Integration: HTAP behaviours the paper is about.

Long version chains from a mix of short writers and long readers; the
index-only visibility check's I/O advantage; GC blocked by snapshots.
"""

import pytest

from repro.config import EngineConfig
from repro.engine import Database


def make_db(kind, **index_opts):
    db = Database(EngineConfig(buffer_pool_pages=96,
                               partition_buffer_bytes=32 * 8192))
    db.create_table("r", [("a", "int"), ("z", "str")], storage="sias")
    db.create_index("idx_a", "r", ["a"], kind=kind, **index_opts)
    return db


class TestLongChains:
    def grow_chain(self, db, versions):
        t = db.begin()
        db.insert(t, "r", (7, "v0"))
        for i in range(50):
            db.insert(t, "r", (1000 + i, "pad"))
        t.commit()
        reader = db.begin()   # pins every later version as transient
        for i in range(versions):
            t = db.begin()
            db.update_by_key(t, "idx_a", (7,), {"z": f"v{i + 1}"})
            t.commit()
        return reader

    def test_old_reader_correct_for_all_engines(self):
        for kind in ("btree", "pbt", "mvpbt"):
            db = make_db(kind)
            reader = self.grow_chain(db, 30)
            assert db.select(reader, "idx_a", (7,)) == [(7, "v0")], kind
            fresh = db.begin()
            assert db.select(fresh, "idx_a", (7,)) == [(7, "v30")], kind

    def test_index_only_visibility_saves_table_reads(self):
        """The core claim: with long chains MV-PBT answers key queries
        without fetching chain versions from the base table."""
        results = {}
        for kind in ("btree", "mvpbt"):
            db = make_db(kind)
            reader = self.grow_chain(db, 40)
            db.flush_all()
            table_file = db.catalog.table("r").file
            before = db.pool.stats_for(table_file).requests
            count = db.count_range(reader, "idx_a", (7,), (7,))
            assert count == 1
            results[kind] = db.pool.stats_for(table_file).requests - before
        assert results["mvpbt"] == 0
        assert results["btree"] > 0

    def test_gc_unblocks_after_reader_commits(self):
        db = make_db("mvpbt")
        reader = self.grow_chain(db, 20)
        ix = db.catalog.index("idx_a").mvpbt
        records_with_reader = ix.record_count()
        reader.commit()
        # scans flag, updates purge
        r = db.begin()
        db.select(r, "idx_a", (7,))
        r.commit()
        t = db.begin()
        db.insert(t, "r", (9999, "trigger"))
        t.commit()
        assert ix.record_count() < records_with_reader


class TestWriteConflicts:
    def test_first_updater_wins(self):
        db = make_db("mvpbt")
        t = db.begin()
        db.insert(t, "r", (1, "base"))
        t.commit()
        t1 = db.begin()
        t2 = db.begin()
        db.update_by_key(t1, "idx_a", (1,), {"z": "t1"})
        from repro.errors import WriteConflictError
        with pytest.raises(WriteConflictError):
            db.update_by_key(t2, "idx_a", (1,), {"z": "t2"})
        t1.commit()
        t2.abort()
        fresh = db.begin()
        assert db.select(fresh, "idx_a", (1,)) == [(1, "t1")]

    def test_aborted_update_leaves_no_trace(self):
        db = make_db("mvpbt")
        t = db.begin()
        db.insert(t, "r", (1, "base"))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "idx_a", (1,), {"z": "doomed"})
        t2.abort()
        fresh = db.begin()
        assert db.select(fresh, "idx_a", (1,)) == [(1, "base")]
        t3 = db.begin()
        db.update_by_key(t3, "idx_a", (1,), {"z": "winner"})
        t3.commit()
        assert db.select(db.begin(), "idx_a", (1,)) == [(1, "winner")]


class TestEvictionUnderLoad:
    def test_many_evictions_preserve_queries(self):
        db = Database(EngineConfig(buffer_pool_pages=96,
                                   partition_buffer_bytes=2 * 8192))
        db.create_table("r", [("a", "int"), ("z", "str")], storage="sias")
        db.create_index("idx_a", "r", ["a"], kind="mvpbt")
        expected = {}
        for i in range(1200):
            t = db.begin()
            db.insert(t, "r", (i, f"v{i}"))
            expected[i] = f"v{i}"
            t.commit()
        for i in range(0, 1200, 4):
            t = db.begin()
            db.update_by_key(t, "idx_a", (i,), {"z": f"u{i}"})
            expected[i] = f"u{i}"
            t.commit()
        ix = db.catalog.index("idx_a").mvpbt
        assert ix.partition_count >= 2
        reader = db.begin()
        for probe in (0, 3, 4, 599, 1199):
            assert db.select(reader, "idx_a", (probe,)) == [
                (probe, expected[probe])], probe
        assert db.count_range(reader, "idx_a", (0,), (99,)) == 100
