"""Catalog: table and index metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.records import ReferenceMode
from ..core.tree import MVPBT
from ..errors import CatalogError
from ..index.base import Index
from ..storage.pagefile import PageFile
from ..table.base import VersionStore
from ..table.indirection import IndirectionLayer
from .schema import Schema


@dataclass
class TableInfo:
    """One base table: schema + version store + its file."""

    name: str
    schema: Schema
    store: VersionStore
    file: PageFile
    #: indirection layer shared by this table's logical-reference indexes
    indirection: IndirectionLayer | None = None
    index_names: list[str] = field(default_factory=list)


@dataclass
class IndexInfo:
    """One index: definition + the index object."""

    name: str
    table: str
    columns: list[str]
    positions: list[int]
    kind: str                             #: 'mvpbt', 'btree' or 'pbt'
    unique: bool
    reference: ReferenceMode
    index: object                         #: MVPBT or Index

    @property
    def is_mvpbt(self) -> bool:
        return self.kind == "mvpbt"

    @property
    def mvpbt(self) -> MVPBT:
        assert isinstance(self.index, MVPBT)
        return self.index

    @property
    def index_only(self) -> bool:
        """The index answers with exactly the visible entries (§4.4).
        False for version-oblivious kinds and for the Fig. 12b/12d
        ablation tree, whose candidates the executor resolves against
        the base table."""
        return self.is_mvpbt and self.mvpbt.index_only_visibility

    @property
    def oblivious(self) -> Index:
        assert isinstance(self.index, Index)
        return self.index


class Catalog:
    """Name → metadata maps."""

    def __init__(self) -> None:
        self._tables: dict[str, TableInfo] = {}
        self._indexes: dict[str, IndexInfo] = {}

    def add_table(self, info: TableInfo) -> None:
        if info.name in self._tables:
            raise CatalogError(f"table {info.name!r} already exists")
        self._tables[info.name] = info

    def add_index(self, info: IndexInfo) -> None:
        if info.name in self._indexes:
            raise CatalogError(f"index {info.name!r} already exists")
        self._indexes[info.name] = info
        self.table(info.table).index_names.append(info.name)

    def table(self, name: str) -> TableInfo:
        info = self._tables.get(name)
        if info is None:
            raise CatalogError(f"unknown table {name!r}")
        return info

    def index(self, name: str) -> IndexInfo:
        info = self._indexes.get(name)
        if info is None:
            raise CatalogError(f"unknown index {name!r}")
        return info

    def indexes_of(self, table: str) -> list[IndexInfo]:
        return [self._indexes[n] for n in self.table(table).index_names]

    @property
    def tables(self) -> list[TableInfo]:
        return list(self._tables.values())

    @property
    def indexes(self) -> list[IndexInfo]:
        return list(self._indexes.values())
