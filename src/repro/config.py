"""Central configuration for the simulated DBMS.

Everything that the paper's experiments vary (buffer sizes, page size,
partition-buffer thresholds, CPU cost constants) lives here so benchmarks can
construct reproducible engine instances from a single object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .obs.config import ObsConfig
# the price list lives beside the clock that charges it; importing it the
# other way round would close sim.clock -> config -> obs -> sim.clock
from .sim.clock import CostModel

#: Default page size in bytes (PostgreSQL-style 8 KiB pages).
PAGE_SIZE = 8192

#: Pages per extent; eviction and appends write whole extents (64 KiB).
EXTENT_PAGES = 8


@dataclass
class EngineConfig:
    """Tunables for one :class:`repro.engine.Database` instance."""

    page_size: int = PAGE_SIZE
    extent_pages: int = EXTENT_PAGES
    #: shared DB buffer capacity, in pages (paper: 600 MB for ~dozens of GB).
    buffer_pool_pages: int = 2048
    #: MV-PBT / PBT partition-buffer capacity, in bytes, shared by all indices.
    partition_buffer_bytes: int = 64 * PAGE_SIZE
    #: the CPU price list; ``Database`` hands it to its clock
    cost: CostModel = field(default_factory=CostModel)
    #: crash durability for MV-PBT indexes: partition manifest + P_N WAL.
    durability: bool = False
    #: cap on pages per manifest superblock slot (slots grow on demand).
    manifest_slot_pages: int = 8
    #: observability: metrics registry + structured tracing (off by
    #: default; see DESIGN.md §13).
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        if self.page_size < 512:
            raise ConfigError(f"page_size too small: {self.page_size}")
        if self.extent_pages < 1:
            raise ConfigError(f"extent_pages must be >= 1: {self.extent_pages}")
        if self.buffer_pool_pages < 8:
            raise ConfigError(
                f"buffer_pool_pages must be >= 8: {self.buffer_pool_pages}")
        if self.manifest_slot_pages < 1:
            raise ConfigError(
                f"manifest_slot_pages must be >= 1: {self.manifest_slot_pages}")
