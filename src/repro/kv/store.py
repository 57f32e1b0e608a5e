"""KV-store interface and shared environment."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

from ..buffer.partition_buffer import PartitionBuffer
from ..buffer.pool import BufferPool
from ..config import EngineConfig
from ..errors import ConfigError
from ..sim.clock import SimClock
from ..sim.device import SimulatedDevice
from ..sim.profiles import INTEL_DC_P3600, DeviceProfile


@dataclass
class KVStats:
    reads: int = 0
    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    scans: int = 0

    @property
    def operations(self) -> int:
        return (self.reads + self.updates + self.inserts + self.deletes
                + self.scans)


class KVEnvironment:
    """Shared simulated substrate for one KV engine instance.

    KV operations use engine-internal snapshots (as WiredTiger does), not
    full transactions, so the clock's price list carries no per-op
    begin/commit bookkeeping; every other constant is the config's.
    """

    def __init__(self, config: EngineConfig | None = None,
                 profile: DeviceProfile = INTEL_DC_P3600) -> None:
        self.config = config if config is not None else EngineConfig()
        self.clock = SimClock(cost=replace(self.config.cost,
                                           txn_overhead=0.0))
        self.device = SimulatedDevice(profile, self.clock)
        self.pool = BufferPool(self.config.buffer_pool_pages,
                               clock=self.clock)
        self.partition_buffer = PartitionBuffer(
            self.config.partition_buffer_bytes)


class KVStore(ABC):
    """Ordered key-value store: string keys, string values."""

    name: str
    env: KVEnvironment
    stats: KVStats

    @abstractmethod
    def put(self, key: str, value: str) -> None:
        """Insert or update."""

    @abstractmethod
    def get(self, key: str) -> str | None: ...

    @abstractmethod
    def delete(self, key: str) -> None: ...

    @abstractmethod
    def scan(self, start_key: str, count: int) -> list[tuple[str, str]]:
        """Up to ``count`` live pairs with keys >= start_key, in order."""


def make_kv_store(kind: str, config: EngineConfig | None = None,
                  profile: DeviceProfile = INTEL_DC_P3600,
                  **options: object) -> KVStore:
    """Factory: ``kind`` in {'btree', 'lsm', 'mvpbt'}."""
    from .btree_kv import BTreeKV
    from .lsm_kv import LSMKV
    from .mvpbt_kv import MVPBTKV

    env = KVEnvironment(config, profile)
    if kind == "btree":
        return BTreeKV(env, **options)
    if kind == "lsm":
        return LSMKV(env, **options)
    if kind == "mvpbt":
        return MVPBTKV(env, **options)
    raise ConfigError(f"unknown KV engine kind {kind!r}")
