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

Vacuum has one rule for every store, :meth:`VersionStore.vacuum`, over the
chains each store lists; a store only reclaims what the rule dropped.  A
write has one rule too, first-updater-wins, and each store keeps the
table's one VID map (paper §3.5) that logical index references resolve
through.
"""

from .base import TupleVersion, VacuumResult, VersionStore, row_size
from .heap import HeapTable
from .sias import SIASTable

__all__ = [
    "TupleVersion",
    "VacuumResult",
    "VersionStore",
    "row_size",
    "HeapTable",
    "SIASTable",
]
