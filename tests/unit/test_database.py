"""Unit tests for the Database facade and executor."""

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import (CatalogError, ConfigError, UniqueViolationError,
                          WriteConflictError)


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

    @pytest.mark.parametrize("kind, opts", [
        ("btree", {}), ("pbt", {}),
        ("mvpbt", {"index_only_visibility": False, "enable_gc": False})],
        ids=["btree", "pbt", "mvpbt-candidates"])
    def test_unique_needs_an_index_only_tree(self, db, kind, opts):
        """Only an index-only MV-PBT tells a visible duplicate from a dead
        version: a B-tree or PBT accepted a second row with key 1, and
        the candidate tree's check, which reads unchecked candidates,
        rejected re-inserting a key whose row was deleted and
        committed."""
        db.create_table("t", [("a", "int"), ("b", "int")])
        with pytest.raises(ConfigError):
            db.create_index("u", "t", ["a"], kind=kind, unique=True, **opts)
        with pytest.raises(CatalogError):
            db.catalog.index("u")

    def test_logical_reference_creates_indirection(self, db):
        db.create_table("t", [("a", "int")])
        store = db.catalog.table("t").store
        assert store._vid_clock is not db.clock
        db.create_index("i", "t", ["a"], kind="btree", reference="logical")
        assert store._vid_clock is db.clock

    def test_indirection_backfilled_for_existing_rows(self, db):
        db.create_table("t", [("a", "int")])
        txn = db.begin()
        db.insert(txn, "t", (1,))
        txn.commit()
        db.create_index("i", "t", ["a"], kind="btree", reference="logical")
        txn2 = db.begin()
        assert db.select(txn2, "i", (1,)) == [(1,)]

    @pytest.mark.parametrize("storage", ["heap", "sias", "delta"])
    def test_backfill_skips_an_aborted_run(self, db, storage):
        """An update past an aborted one leaves the aborted version as a
        chain of its own; a late logical index must not point the row's
        indirection slot at it (on heap the row read as gone)."""
        db.create_table("t", [("a", "int"), ("b", "str")], storage=storage)
        txn = db.begin()
        db.insert(txn, "t", (1, "x"))
        txn.commit()
        for value, commit in (("bad", False), ("good", True)):
            txn = db.begin()
            [(rid, version)] = [
                (rid, db.catalog.table("t").store.fetch(rid))
                for rid, _row in db.catalog.table("t").store.scan_visible(txn)]
            db.update_row(txn, "t", rid, version, {"b": value})
            if commit:
                txn.commit()
            else:
                txn.abort()
        db.create_index("i", "t", ["a"], kind="btree", reference="logical")
        assert db.select(db.begin(), "i", (1,)) == [(1, "good")]


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


@pytest.mark.parametrize("storage", ["heap", "sias", "delta"])
class TestWriteRule:
    """First updater wins, decided once for every store."""

    def _row(self, db, storage):
        db.create_table("t", [("a", "int"), ("b", "str")], storage=storage)
        t = db.begin()
        _vid, rid = db.insert(t, "t", (1, "a"))
        t.commit()
        return rid, db.catalog.table("t").store.fetch(rid)

    def test_update_over_an_uncommitted_delete_conflicts(self, db,
                                                         storage):
        """The deleter may still abort, so the writer may not act on the
        delete (delta said the row was gone); once it aborts, the row is
        there to update."""
        rid, version = self._row(db, storage)
        writer = db.begin()
        deleter = db.begin()
        db.delete_row(deleter, "t", rid, version)
        with pytest.raises(WriteConflictError):
            db.update_row(writer, "t", rid, version, {"b": "lost"})
        deleter.abort()
        db.update_row(writer, "t", rid, version, {"b": "kept"})
        writer.commit()
        assert db.seq_scan(db.begin(), "t") == [(1, "kept")]

    def test_a_second_write_through_a_superseded_handle(self, db, storage):
        """The handle's version already has the writer's own successor:
        a second successor would fork the chain (the heap's did), so only
        delta, whose handle names the main row itself, goes in place."""
        rid, version = self._row(db, storage)
        t = db.begin()
        db.update_row(t, "t", rid, version, {"b": "b"})
        if storage == "delta":
            db.update_row(t, "t", rid, version, {"b": "c"})
        else:
            with pytest.raises(WriteConflictError):
                db.update_row(t, "t", rid, version, {"b": "c"})
        t.commit()
        assert db.seq_scan(db.begin(), "t") \
            == [(1, "c" if storage == "delta" else "b")]


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


class TestCandidateTree:
    @pytest.mark.parametrize("storage", ["heap", "sias", "delta"])
    def test_logical_candidate_tree_reads(self, db, storage):
        """An MV-PBT that is not index-only hands out recordIDs, so its
        candidates resolve without the indirection layer even when its
        references are logical (the read raised a TypeError)."""
        setup_table(db, storage=storage, reference="logical",
                    index_only_visibility=False, enable_gc=False)
        t = db.begin()
        db.insert(t, "r", (1, "x", 0.0))
        db.insert(t, "r", (2, "y", 0.0))
        t.commit()
        t = db.begin()
        db.update_by_key(t, "idx_a", (1,), {"b": "z"})
        db.update_by_key(t, "idx_a", (2,), {"a": 3})
        t.commit()
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == [(1, "z", 0.0)]
        assert db.select(r, "idx_a", (2,)) == []
        assert db.range_select(r, "idx_a", None, None) \
            == [(1, "z", 0.0), (3, "y", 0.0)]


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


    @pytest.mark.parametrize("reference", ["physical", "logical"])
    def test_vacuum_delta_drops_deleted_rows(self, db, reference):
        """A delta row deleted under the cutoff goes with its chain, and
        the index purges its entries (both stayed forever)."""
        setup_table(db, storage="delta", kind="btree", reference=reference)
        for op in ("insert", "delete"):
            t = db.begin()
            for i in range(200):
                if op == "insert":
                    db.insert(t, "r", (i, "x", 0.0))
                else:
                    db.delete_by_key(t, "idx_a", (i,))
            t.commit()
        first = db.vacuum("r")
        assert len(first.removed_rids) == len(first.dropped_vids) == 200
        db.vacuum("r")
        assert list(db.catalog.table("r").store.scan_versions()) == []
        assert db.catalog.index("idx_a").index.entry_count() == 0
        t = db.begin()
        db.insert(t, "r", (7, "again", 1.0))
        t.commit()
        r = db.begin()
        assert db.select(r, "idx_a", (7,)) == [(7, "again", 1.0)]
        assert db.range_select(r, "idx_a", None, None) \
            == [(7, "again", 1.0)]

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

    @pytest.mark.parametrize("reference", ["physical", "logical"])
    @pytest.mark.parametrize("storage", ["heap", "sias", "delta"])
    def test_vacuum_leaves_entries_only_for_live_versions(self, db, storage,
                                                          reference):
        """A B-tree on ``a`` beside an MV-PBT key: after two vacuum passes
        an aborted insert and a committed delete leave no entry, a key's
        round trip holds no (key, ref) twice, and every read equals the
        committed rows."""
        db.create_table("r", [("k", "int"), ("a", "int"), ("b", "str")],
                        storage=storage)
        db.create_index("pk", "r", ["k"])
        db.create_index("ix", "r", ["a"], kind="btree", reference=reference)
        store = db.catalog.table("r").store
        index = db.catalog.index("ix").index

        def vacuum_twice():
            db.vacuum("r")
            db.vacuum("r")

        def pairs():
            return list(index.range_scan(None, None))

        t = db.begin()
        for k in range(20):
            db.insert(t, "r", (k, k, "gone"))
        t.abort()
        vacuum_twice()
        assert store.chains() == [] and index.entry_count() == 0

        model = {k: (k, k, "x") for k in range(10)}
        t = db.begin()
        for row in model.values():
            db.insert(t, "r", row)
        t.commit()
        t = db.begin()
        for k in range(5, 10):
            db.delete_by_key(t, "pk", (k,))
            del model[k]
        t.commit()
        for a in (100, 0, 100, 0):      # row 0's a: 0 -> 100 -> 0 -> ...
            t = db.begin()
            db.update_by_key(t, "pk", (0,), {"a": a})
            t.commit()
        for a in range(200, 210):       # row 1: ten aborted key updates
            t = db.begin()
            db.update_by_key(t, "pk", (1,), {"a": a})
            t.abort()
        assert len(pairs()) == len(set(pairs()))
        vacuum_twice()
        # the keys row 0 left and the aborted updates of row 1 went with
        # their versions, whether or not the ref moved (a heap root kept
        # as a redirect stub still holds row 0's key: it reaches it)
        assert len(pairs()) == len(set(pairs()))
        assert {key for key, _ref in pairs()} \
            == {(row[1],) for row in model.values()}
        r = db.begin()
        assert sorted(db.seq_scan(r, "r")) == sorted(model.values())
        assert db.range_select(r, "ix", None, None) \
            == sorted(model.values(), key=lambda row: row[1])
        for k, row in model.items():
            assert db.select(r, "ix", (row[1],)) == [row]

    @pytest.mark.parametrize("reference", ["physical", "logical"])
    @pytest.mark.parametrize("storage", ["heap", "sias", "delta"])
    def test_vacuum_drops_keys_aborted_updates_left(self, db, storage,
                                                     reference):
        """Ten aborted key updates of one row, two vacuum passes: one
        entry is left, whether each update moved the ref or not."""
        db.create_table("r", [("k", "int"), ("a", "int"), ("b", "str")],
                        storage=storage)
        db.create_index("pk", "r", ["k"])
        db.create_index("ix", "r", ["a"], kind="btree", reference=reference)
        t = db.begin()
        db.insert(t, "r", (1, 1, "x"))
        t.commit()
        for a in range(200, 210):
            t = db.begin()
            db.update_by_key(t, "pk", (1,), {"a": a})
            t.abort()
        db.vacuum("r")
        db.vacuum("r")
        index = db.catalog.index("ix").index
        assert index.entry_count() == 1
        r = db.begin()
        assert db.select(r, "ix", (1,)) == [(1, 1, "x")]

    def test_vacuum_repoints_indirection_past_an_aborted_update(self, db):
        setup_table(db, kind="btree", reference="logical")
        t = db.begin()
        vid, rid = db.insert(t, "r", (1, "v" * 4000, 0.0))
        t.commit()
        t2 = db.begin()
        db.update_by_key(t2, "idx_a", (1,), {"b": "x" * 7000})  # own page
        t2.abort()
        t3 = db.begin()
        db.insert(t3, "r", (2, "y" * 7000, 0.0))
        t3.commit()
        db.flush_all()
        store = db.catalog.table("r").store
        assert store._entry[vid] != rid
        result = db.vacuum("r")
        assert store._entry[vid] == rid and result.pages_freed == 1
        r = db.begin()
        assert db.select(r, "idx_a", (1,)) == [(1, "v" * 4000, 0.0)]


    def test_vacuum_frees_pages_whose_versions_died_earlier(self, db):
        """A flushed SIAS page is freed once no survivor lives on it, even
        when its versions died in different passes."""
        db.create_table("t", [("k", "int"), ("s", "str")])
        db.create_index("ix", "t", ["k"], kind="btree")
        t = db.begin()
        for k in range(40):
            db.insert(t, "t", (k, "x" * 300))
        t.commit()
        for first in (0, 1):
            t = db.begin()
            for k in range(first, 40, 2):
                db.delete_by_key(t, "ix", (k,))
            t.commit()
            db.flush_all()
            db.vacuum("t")
        db.vacuum("t")
        store = db.catalog.table("t").store
        assert store.chains() == []
        assert [page for page in range(store.file.max_page_no)
                if store.file.has_contents(page)] == []


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
