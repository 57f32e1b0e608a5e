"""Buffer management: shared DB buffer pool and the MV-PBT partition buffer."""

from .partition_buffer import PartitionBuffer, PartitionedIndexProtocol
from .pool import BufferPool, FileBufferStats

__all__ = [
    "BufferPool",
    "FileBufferStats",
    "PartitionBuffer",
    "PartitionedIndexProtocol",
]
