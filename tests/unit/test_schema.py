"""Unit tests for schemas and the catalog."""

import pytest

from repro.engine.catalog import Catalog, IndexInfo, TableInfo
from repro.engine.schema import Column, Schema
from repro.errors import CatalogError


class TestColumn:
    def test_valid_types(self):
        for t in ("int", "float", "str"):
            Column("c", t)

    def test_invalid_type(self):
        with pytest.raises(CatalogError):
            Column("c", "blob")


class TestSchema:
    def test_from_tuples(self):
        s = Schema([("a", "int"), ("b", "str")])
        assert s.names == ["a", "b"]
        assert len(s) == 2

    def test_empty_rejected(self):
        with pytest.raises(CatalogError):
            Schema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema([("a", "int"), ("a", "str")])

    def test_position(self):
        s = Schema([("a", "int"), ("b", "str")])
        assert s.position("b") == 1
        with pytest.raises(CatalogError):
            s.position("z")

    def test_validate_row(self):
        s = Schema([("a", "int"), ("b", "str")])
        assert s.validate_row([1, "x"]) == (1, "x")

    def test_validate_row_wrong_arity(self):
        s = Schema([("a", "int")])
        with pytest.raises(CatalogError):
            s.validate_row([1, 2])

    def test_validate_row_wrong_type(self):
        s = Schema([("a", "int")])
        with pytest.raises(CatalogError):
            s.validate_row(["not-int"])

    def test_int_accepted_for_float_column(self):
        s = Schema([("a", "float")])
        assert s.validate_row([3]) == (3,)

    def test_none_allowed(self):
        s = Schema([("a", "int")])
        assert s.validate_row([None]) == (None,)

    def test_extract(self):
        s = Schema([("a", "int"), ("b", "str"), ("c", "int")])
        assert s.extract((1, "x", 3), s.positions(["c", "a"])) == (3, 1)

    def test_apply_updates(self):
        s = Schema([("a", "int"), ("b", "str")])
        assert s.apply_updates((1, "x"), {"b": "y"}) == (1, "y")


class TestCatalog:
    def _table_info(self, name="t"):
        return TableInfo(name=name, schema=Schema([("a", "int")]),
                         store=None, file=None)

    def test_add_and_get_table(self):
        cat = Catalog()
        cat.add_table(self._table_info())
        assert cat.table("t").name == "t"

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.add_table(self._table_info())
        with pytest.raises(CatalogError):
            cat.add_table(self._table_info())

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_indexes_of(self):
        cat = Catalog()
        cat.add_table(self._table_info())
        info = IndexInfo(name="i", table="t", columns=["a"], positions=[0],
                         kind="btree", unique=False,
                         reference=__import__(
                             "repro.core.records",
                             fromlist=["ReferenceMode"]).ReferenceMode.PHYSICAL,
                         index=None)
        cat.add_index(info)
        assert [ix.name for ix in cat.indexes_of("t")] == ["i"]

    def test_unknown_index(self):
        with pytest.raises(CatalogError):
            Catalog().index("nope")
