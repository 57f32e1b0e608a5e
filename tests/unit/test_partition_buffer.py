"""Unit tests for the MV-PBT partition buffer policy."""

import pytest

from repro.buffer.partition_buffer import PartitionBuffer
from repro.errors import ConfigError


class FakeIndex:
    def __init__(self, name, size):
        self.name = name
        self.size = size
        self.evicted = 0

    def memory_partition_bytes(self):
        return self.size

    def evict_partition(self):
        self.size = 0
        self.evicted += 1


class TestPartitionBuffer:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            PartitionBuffer(0)

    def test_no_eviction_under_budget(self):
        pb = PartitionBuffer(1000)
        ix = FakeIndex("a", 500)
        pb.register(ix)
        assert pb.maybe_evict() == 0
        assert ix.evicted == 0

    def test_largest_partition_evicted_first(self):
        pb = PartitionBuffer(1000)
        small, big = FakeIndex("small", 400), FakeIndex("big", 700)
        pb.register(small)
        pb.register(big)
        pb.maybe_evict()
        assert big.evicted == 1
        assert small.evicted == 0

    def test_evicts_until_under_budget(self):
        pb = PartitionBuffer(400)
        a, b, c = FakeIndex("a", 400), FakeIndex("b", 300), FakeIndex("c", 200)
        for ix in (a, b, c):
            pb.register(ix)
        evicted = pb.maybe_evict()
        assert evicted == 2              # 900 -> 500 -> 200 <= 400
        assert (a.evicted, b.evicted, c.evicted) == (1, 1, 0)

    def test_used_bytes_sums_all_indices(self):
        pb = PartitionBuffer(10_000)
        pb.register(FakeIndex("a", 100))
        pb.register(FakeIndex("b", 200))
        assert pb.used_bytes == 300

    def test_register_idempotent(self):
        pb = PartitionBuffer(1000)
        ix = FakeIndex("a", 100)
        pb.register(ix)
        pb.register(ix)
        assert pb.used_bytes == 100

    def test_empty_partitions_never_chosen(self):
        pb = PartitionBuffer(100)
        ix = FakeIndex("a", 0)
        pb.register(ix)
        # over budget cannot be resolved by evicting empty partitions
        assert pb.maybe_evict() == 0
