"""Horizontal sharding: a keyspace router over N MV-PBT engine shards
(DESIGN.md §16).

Public surface:

* :class:`ShardedDatabase` / :class:`ShardConfig` — the router facade
* :class:`ShardCoordinator` — global txids/snapshots, commit point, layouts
* :class:`ShardTransaction` — one distributed transaction bundle
* :class:`HashPartitioner` — the keyspace layout (CRC32 hash slots)
"""

from .coordinator import ShardCoordinator
from .partitioner import HashPartitioner
from .router import ShardConfig, ShardedDatabase
from .txn import ShardTransaction

__all__ = [
    "HashPartitioner",
    "ShardConfig",
    "ShardCoordinator",
    "ShardTransaction",
    "ShardedDatabase",
]
