"""LSM-Tree KV engine (WiredTiger's LSM storage structure)."""

from __future__ import annotations

from ..index.lsm.tree import LSMTree
from ..storage.pagefile import PageFile
from .store import KVEnvironment, KVStats, KVStore


class LSMKV(KVStore):
    """Leveled LSM with per-component bloom filters."""

    def __init__(self, env: KVEnvironment, *,
                 memtable_bytes: int | None = None,
                 l0_component_limit: int = 4,
                 size_ratio: int = 10) -> None:
        self.name = "lsm"
        self.env = env
        self.stats = KVStats()
        file = PageFile("kv:lsm", env.device, env.config.page_size,
                        env.config.extent_pages)
        # by default the memtable gets the same budget MV-PBT's P_N gets,
        # for an apples-to-apples memory comparison
        if memtable_bytes is None:
            memtable_bytes = env.config.partition_buffer_bytes
        self._tree = LSMTree(
            "kv:lsm", file, env.pool,
            memtable_bytes=memtable_bytes,
            l0_component_limit=l0_component_limit,
            level_base_bytes=4 * memtable_bytes,
            size_ratio=size_ratio,
            clock=env.clock, cost=env.config.cost)

    @property
    def lsm(self) -> LSMTree:
        return self._tree

    def put(self, key: str, value: str) -> None:
        self.stats.updates += 1
        self._tree.put((key,), value)

    def get(self, key: str) -> str | None:
        self.stats.reads += 1
        return self._tree.get((key,))  # type: ignore[return-value]

    def delete(self, key: str) -> None:
        self.stats.deletes += 1
        self._tree.delete((key,))

    def scan(self, start_key: str, count: int) -> list[tuple[str, str]]:
        self.stats.scans += 1
        return [(k[0], v)  # type: ignore[misc]
                for k, v in self._tree.scan((start_key,), count)]
