"""Base-table version stores.

Three designs behind one :class:`~repro.table.base.VersionStore`
interface, which owns every storage-layout decision:

* :class:`~repro.table.heap.HeapTable` — PostgreSQL-style heap with HOT
  (heap-only tuples), old-to-new version ordering and two-point invalidation.
* :class:`~repro.table.sias.SIASTable` — append-only storage (SIAS) with
  physically materialised versions, new-to-old ordering and one-point
  invalidation.
* :class:`~repro.table.delta.DeltaTable` — in-place main rows with a delta
  version pool (the alternative §3.6 argues against).
"""

from .base import TupleVersion, VersionStore, row_size
from .heap import HeapTable
from .indirection import IndirectionLayer
from .sias import SIASTable
from .vacuum import vacuum_heap, vacuum_sias

__all__ = [
    "TupleVersion",
    "VersionStore",
    "row_size",
    "HeapTable",
    "SIASTable",
    "IndirectionLayer",
    "vacuum_heap",
    "vacuum_sias",
]
