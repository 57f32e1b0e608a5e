"""Unit tests for the Database facade and executor."""

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import CatalogError, UniqueViolationError


@pytest.fixture
def db():
    return Database(EngineConfig(buffer_pool_pages=128))


def setup_table(db, storage="sias", kind="mvpbt", reference="physical",
                **opts):
    db.create_table("r", [("a", "int"), ("b", "str"), ("c", "float")],
                    storage=storage)
    db.create_index("idx_a", "r", ["a"], kind=kind, reference=reference,
                    **opts)
    return db


class TestDDL:
    def test_unknown_storage(self, db):
        with pytest.raises(CatalogError):
            db.create_table("t", [("a", "int")], storage="column")

    def test_unknown_index_kind(self, db):
        db.create_table("t", [("a", "int")])
        with pytest.raises(CatalogError):
            db.create_index("i", "t", ["a"], kind="hash")

    def test_index_on_unknown_column(self, db):
        db.create_table("t", [("a", "int")])
        with pytest.raises(CatalogError):
            db.create_index("i", "t", ["z"])

    def test_logical_reference_creates_indirection(self, db):
        db.create_table("t", [("a", "int")])
        db.create_index("i", "t", ["a"], kind="btree", reference="logical")
        assert db.catalog.table("t").indirection is not None

    def test_indirection_backfilled_for_existing_rows(self, db):
        db.create_table("t", [("a", "int")])
        txn = db.begin()
        db.insert(txn, "t", (1,))
        txn.commit()
        db.create_index("i", "t", ["a"], kind="btree", reference="logical")
        txn2 = db.begin()
        assert db.select(txn2, "i", (1,)) == [(1,)]


class TestDML:
    def test_insert_select(self, db):
        setup_table(db)
        t = db.begin()
        db.insert(t, "r", (1, "x", 2.5))
        t.commit()
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == [(1, "x", 2.5)]

    def test_update_by_key(self, db):
        setup_table(db)
        t = db.begin()
        db.insert(t, "r", (1, "x", 2.5))
        t.commit()
        t2 = db.begin()
        assert db.update_by_key(t2, "idx_a", (1,), {"b": "y"}) == 1
        t2.commit()
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == [(1, "y", 2.5)]

    def test_update_key_column_moves_row(self, db):
        setup_table(db)
        t = db.begin()
        db.insert(t, "r", (1, "x", 2.5))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "idx_a", (1,), {"a": 9})
        t2.commit()
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == []
        assert db.select(r, "idx_a", (9,)) == [(9, "x", 2.5)]

    def test_delete_by_key(self, db):
        setup_table(db)
        t = db.begin()
        db.insert(t, "r", (1, "x", 2.5))
        db.insert(t, "r", (2, "y", 0.0))
        t.commit()
        t2 = db.begin()
        assert db.delete_by_key(t2, "idx_a", (1,)) == 1
        t2.commit()
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == []
        assert db.select(r, "idx_a", (2,)) == [(2, "y", 0.0)]

    def test_update_missing_key_returns_zero(self, db):
        setup_table(db)
        t = db.begin()
        assert db.update_by_key(t, "idx_a", (404,), {"b": "z"}) == 0

    def test_multi_index_maintenance(self, db):
        setup_table(db)
        db.create_index("idx_b", "r", ["b"], kind="mvpbt")
        t = db.begin()
        db.insert(t, "r", (1, "x", 2.5))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "idx_a", (1,), {"b": "z"})
        t2.commit()
        r = db.begin()
        assert db.select(r, "idx_b", ("z",)) == [(1, "z", 2.5)]
        assert db.select(r, "idx_b", ("x",)) == []

    def test_unique_index_enforced_via_engine(self, db):
        setup_table(db, unique=True)
        t = db.begin()
        db.insert(t, "r", (1, "x", 0.0))
        with pytest.raises(UniqueViolationError):
            db.insert(t, "r", (1, "y", 0.0))


class TestQueries:
    def test_range_select(self, db):
        setup_table(db)
        t = db.begin()
        for i in range(20):
            db.insert(t, "r", (i, f"s{i}", float(i)))
        t.commit()
        r = db.begin()
        rows = db.range_select(r, "idx_a", (5,), (10,))
        assert [row[0] for row in rows] == list(range(5, 11))

    def test_count_range_index_only(self, db):
        setup_table(db)
        t = db.begin()
        for i in range(20):
            db.insert(t, "r", (i, "s", 0.0))
        t.commit()
        db.flush_all()
        r = db.begin()
        table_file = db.catalog.table("r").file
        reads_before = table_file.physical_reads
        assert db.count_range(r, "idx_a", None, (10,)) == 11
        # MV-PBT count is index-only: zero base-table page reads
        assert table_file.physical_reads == reads_before

    def test_count_range_btree_touches_table(self, db):
        setup_table(db, kind="btree")
        t = db.begin()
        for i in range(20):
            db.insert(t, "r", (i, "s", 0.0))
        t.commit()
        db.flush_all()
        r = db.begin()
        stats_before = db.pool.stats_for(db.catalog.table("r").file).requests
        assert db.count_range(r, "idx_a", None, (10,)) == 11
        after = db.pool.stats_for(db.catalog.table("r").file).requests
        assert after > stats_before   # candidates resolved in the base table

    def test_seq_scan(self, db):
        setup_table(db)
        t = db.begin()
        for i in range(5):
            db.insert(t, "r", (i, "s", 0.0))
        t.commit()
        r = db.begin()
        assert len(db.seq_scan(r, "r")) == 5

    def test_predicate_recheck_on_oblivious_index(self, db):
        """A version-oblivious candidate whose visible version no longer
        matches the key must be filtered out (key updated)."""
        setup_table(db, kind="pbt")
        t = db.begin()
        db.insert(t, "r", (1, "x", 0.0))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "idx_a", (1,), {"a": 2})
        t2.commit()
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == []
        assert db.select(r, "idx_a", (2,)) == [(2, "x", 0.0)]

    def test_snapshot_isolation_end_to_end(self, db):
        setup_table(db)
        t = db.begin()
        db.insert(t, "r", (1, "v0", 0.0))
        t.commit()
        reader = db.begin()
        t2 = db.begin()
        db.update_by_key(t2, "idx_a", (1,), {"b": "v1"})
        t2.commit()
        assert db.select(reader, "idx_a", (1,)) == [(1, "v0", 0.0)]
        fresh = db.begin()
        assert db.select(fresh, "idx_a", (1,)) == [(1, "v1", 0.0)]


class TestVacuumIntegration:
    def test_vacuum_sias_purges_index_entries(self, db):
        setup_table(db, kind="btree")
        t = db.begin()
        db.insert(t, "r", (1, "x", 0.0))
        t.commit()
        t2 = db.begin()
        db.delete_by_key(t2, "idx_a", (1,))
        t2.commit()
        result = db.vacuum("r")
        assert result.versions_removed >= 1
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == []


    def test_vacuum_after_a_rollback_keeps_the_table_readable(self, db):
        """bench/README.md finding 1: an aborted bulk insert, a committed
        one, vacuum — the scan must return exactly the committed rows
        (it raised PageNotFoundError: the chains of the rolled-back rows
        still named the pages vacuum had just freed)."""
        setup_table(db)
        t = db.begin()
        for i in range(2000):
            db.insert(t, "r", (i, "rolled back", 0.0))
        t.abort()
        t2 = db.begin()
        for i in range(100):
            db.insert(t2, "r", (10_000 + i, "kept", 1.0))
        t2.commit()
        db.flush_all()
        result = db.vacuum("r")
        assert result.pages_freed > 0
        r = db.begin()
        rows = db.seq_scan(r, "r")
        assert sorted(rows) == [(10_000 + i, "kept", 1.0) for i in range(100)]
        assert db.select(r, "idx_a", (10_050,)) == [(10_050, "kept", 1.0)]
        assert db.select(r, "idx_a", (5,)) == []

    def test_vacuum_repoints_indirection_past_an_aborted_update(self, db):
        setup_table(db, kind="btree", reference="logical")
        t = db.begin()
        db.insert(t, "r", (1, "v" * 4000, 0.0))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "idx_a", (1,), {"b": "x" * 7000})  # own page
        t2.abort()
        t3 = db.begin()
        db.insert(t3, "r", (2, "y" * 7000, 0.0))
        t3.commit()
        db.flush_all()
        result = db.vacuum("r")
        assert result.repointed and result.pages_freed == 1
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == [(1, "v" * 4000, 0.0)]


class TestIntrospection:
    def test_stats_snapshot(self, db):
        setup_table(db)
        t = db.begin()
        for i in range(20):
            db.insert(t, "r", (i, "x", 0.0))
        t.commit()
        r = db.begin()
        db.select(r, "idx_a", (5,))
        r.commit()
        stats = db.stats()
        assert stats["transactions"]["committed"] == 2
        assert stats["transactions"]["active"] == 0
        assert stats["sim_time_seconds"] > 0
        ix_stats = stats["indexes"]["idx_a"]
        assert ix_stats["memory_partition"]["records"] == 20
        assert ix_stats["mode"] == "physical"

    def test_describe_after_eviction(self, db):
        setup_table(db)
        t = db.begin()
        for i in range(50):
            db.insert(t, "r", (i, "x", 0.0))
        t.commit()
        ix = db.catalog.index("idx_a").mvpbt
        ix.evict_partition()
        desc = ix.describe()
        assert len(desc["persisted_partitions"]) == 1
        part = desc["persisted_partitions"][0]
        assert part["records"] == 50
        assert part["bloom_bytes"] > 0
        assert desc["memory_partition"]["records"] == 0
        assert desc["evictions"] == 1
