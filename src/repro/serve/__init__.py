"""Concurrent multi-session serving (DESIGN.md §15).

The engine core is deliberately single-caller: trees, buffer pool,
simulated device and clock are not internally thread-safe.  This package
adds the concurrency layer on top:

- :mod:`~repro.serve.scheduler` — a FIFO *engine slot* (ticket lock)
  confining all engine state to one thread at a time, with per-kind
  fairness accounting;
- :mod:`~repro.serve.session` / :mod:`~repro.serve.server` — ONE session
  core and ONE server core (what a session / a server *is*) plus their
  single-node bindings :class:`Session` / :class:`Server`;
  :mod:`~repro.serve.shard_server` binds the same cores to the sharded
  router (:class:`ShardSession` / :class:`ShardServer`), whose scatter
  reads visit the shards on the session's own thread.  Analytical
  scans release the slot between slices so short transactions interleave
  with long scans (the HTAP serving story);
- :mod:`~repro.serve.group_commit` — leader/follower WAL group commit:
  concurrently committing sessions share one multi-record WAL append
  (one simulated fsync per *group*), always on over a durable database;
- :mod:`~repro.serve.locks` — the ascending-rank lock-ordering
  discipline, enforced at runtime;
- :mod:`~repro.serve.executor` — a thread pool driving client workloads
  for benchmarks and stress tests.

Raw threading primitives are confined to this package and the two
synchronized transaction components (``txn/manager.py``,
``txn/status.py``) — pinned by reprolint rule R8.
"""

from .config import ServeConfig
from .executor import SessionExecutor
from .group_commit import GroupCommitStats, GroupCommitter
from .locks import (RANK_ENGINE, RANK_GROUP_QUEUE, RANK_TXN_COMMITLOG,
                    RANK_TXN_MANAGER, OrderedLock, held_ranks)
from .scheduler import FairScheduler, KindStats
from .server import Server
from .session import Session
from .shard_server import ShardServer, ShardSession

__all__ = [
    "FairScheduler",
    "GroupCommitStats",
    "GroupCommitter",
    "KindStats",
    "OrderedLock",
    "RANK_ENGINE",
    "RANK_GROUP_QUEUE",
    "RANK_TXN_COMMITLOG",
    "RANK_TXN_MANAGER",
    "Server",
    "ServeConfig",
    "Session",
    "SessionExecutor",
    "ShardServer",
    "ShardSession",
    "held_ranks",
]
