"""MV-PBT: the Multi-Version Partitioned B-Tree (the paper's contribution).

Modules:

* :mod:`~repro.core.records` — the four index-record types of §4.1
  (regular / replacement / anti / tombstone) plus the reconciled set record
  of §4.7, with matter / anti-matter semantics;
* :mod:`~repro.core.partition` — the mutable in-memory partition ``P_N``
  (leaf-organised, 67% fill) and immutable persisted partitions;
* :mod:`~repro.core.visibility` — the index-only visibility check (Alg. 3);
* :mod:`~repro.core.tree` — the MV-PBT index itself (operations of §4.2,
  record ordering of §4.3);
* :mod:`~repro.core.gc` — cooperative partition garbage collection (§4.6);
* :mod:`~repro.core.eviction` — partition eviction (Alg. 4): final GC,
  reconciliation, dense-packing, filters, sequential append.
"""

from .merge import bulk_load, merge_partitions
from .records import (FLAG_GC, MVPBTRecord, RecordType, ReferenceMode,
                      record_size, record_ts_bounds)
from .partition import MemoryPartition, PersistedPartition
from .tree import MVPBT, SearchHit
from .visibility import Visibility, VisibilityChecker

__all__ = [
    "MVPBT",
    "SearchHit",
    "MVPBTRecord",
    "RecordType",
    "ReferenceMode",
    "FLAG_GC",
    "record_size",
    "MemoryPartition",
    "PersistedPartition",
    "Visibility",
    "VisibilityChecker",
    "merge_partitions",
    "bulk_load",
    "record_ts_bounds",
]
