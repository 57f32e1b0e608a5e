"""MV-PBT KV engine (the paper's WiredTiger integration, §5).

Values are stored **inline** in MV-PBT index records.  Updates are *blind*:
a replacement record under the key's stable VID supersedes every older
record of that key through the logical anti-matter identity — no read before
write, exactly one eventual write per modification (on partition eviction).

Each operation runs as an auto-commit transaction; multi-versioning is the
engine's internal machinery (like WiredTiger's snapshots), the KV API is
single-version read-latest.
"""

from __future__ import annotations

from ..core.records import ReferenceMode
from ..core.tree import MVPBT
from ..storage.pagefile import PageFile
from ..storage.recordid import RecordID
from ..txn.manager import TransactionManager
from .store import KVEnvironment, KVStats, KVStore


class MVPBTKV(KVStore):
    """MV-PBT as a key-value storage structure."""

    def __init__(self, env: KVEnvironment, *,
                 use_bloom: bool = True,
                 enable_gc: bool = True,
                 max_partitions: int | None = None) -> None:
        self.name = "mvpbt"
        self.env = env
        self.stats = KVStats()
        # the environment's clock prices no begin/commit bookkeeping
        self.manager = TransactionManager(env.clock)
        file = PageFile("kv:mvpbt", env.device, env.config.page_size,
                        env.config.extent_pages)
        self._tree = MVPBT(
            "kv:mvpbt", file, env.pool, env.partition_buffer, self.manager,
            unique=False, mode=ReferenceMode.LOGICAL,
            use_bloom=use_bloom,
            enable_gc=enable_gc,
            max_partitions=max_partitions,
            # KV point reads: one live version per key — stop at first hit
            first_hit_only=True,
            # reconciliation merges only REGULAR records; KV updates are
            # replacements, so it would rarely apply — keep it off
            reconcile=False)
        self._vids: dict[str, int] = {}
        self._next_vid = 1
        self._next_rid = 0

    @property
    def tree(self) -> MVPBT:
        return self._tree

    # ------------------------------------------------------------------- API

    def put(self, key: str, value: str) -> None:
        self.stats.updates += 1
        vid, known = self._vid(key)
        rid = self._fresh_rid()
        txn = self.manager.begin()
        if known:
            # blind update: the VID identity supersedes all older records
            self._tree.update_nonkey(txn, (key,), rid, rid, vid,
                                     payload=value)
        else:
            self._tree.insert(txn, (key,), rid, vid, payload=value)
        txn.commit()

    def get(self, key: str) -> str | None:
        self.stats.reads += 1
        txn = self.manager.begin()
        try:
            hits = self._tree.search(txn, (key,))
        finally:
            txn.commit()
        return hits[0].payload if hits else None  # type: ignore[return-value]

    def delete(self, key: str) -> None:
        self.stats.deletes += 1
        vid = self._vids.get(key)
        if vid is None:
            return
        txn = self.manager.begin()
        self._tree.delete(txn, (key,), self._fresh_rid(), vid)
        txn.commit()

    def scan(self, start_key: str, count: int) -> list[tuple[str, str]]:
        self.stats.scans += 1
        txn = self.manager.begin()
        try:
            hits = self._tree.scan_limit(txn, (start_key,), count)
        finally:
            txn.commit()
        return [(h.key[0], h.payload) for h in hits]  # type: ignore[misc]

    # -------------------------------------------------------------- internal

    def _vid(self, key: str) -> tuple[int, bool]:
        vid = self._vids.get(key)
        if vid is not None:
            return vid, True
        vid = self._next_vid
        self._next_vid += 1
        self._vids[key] = vid
        return vid, False

    def _fresh_rid(self) -> RecordID:
        self._next_rid += 1
        return RecordID(self._next_rid >> 16, self._next_rid & 0xFFFF)
