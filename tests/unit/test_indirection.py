"""Unit tests for the indirection layer."""

import pytest

from repro.config import CostModel
from repro.errors import TupleNotFoundError
from repro.sim.clock import SimClock
from repro.storage.recordid import RecordID
from repro.table.indirection import IndirectionLayer


class TestIndirection:
    def test_set_and_resolve(self):
        layer = IndirectionLayer()
        layer.set(1, RecordID(5, 2))
        assert layer.resolve(1) == RecordID(5, 2)

    def test_update_entry_point(self):
        layer = IndirectionLayer()
        layer.set(1, RecordID(5, 2))
        layer.set(1, RecordID(9, 0))
        assert layer.resolve(1) == RecordID(9, 0)
        assert layer.updates == 2

    def test_unknown_vid_raises(self):
        with pytest.raises(TupleNotFoundError):
            IndirectionLayer().resolve(42)

    def test_try_resolve_returns_none(self):
        assert IndirectionLayer().try_resolve(42) is None

    def test_remove(self):
        layer = IndirectionLayer()
        layer.set(1, RecordID(0, 0))
        layer.remove(1)
        assert 1 not in layer
        assert layer.try_resolve(1) is None

    def test_len_and_contains(self):
        layer = IndirectionLayer()
        layer.set(1, RecordID(0, 0))
        layer.set(2, RecordID(0, 1))
        assert len(layer) == 2
        assert 1 in layer

    def test_resolution_charges_cpu(self):
        cost = CostModel(indirection_lookup=1e-3)
        clock = SimClock(cost=cost)
        layer = IndirectionLayer(clock)
        layer.set(1, RecordID(0, 0))
        before = clock.now
        layer.resolve(1)
        assert clock.now == pytest.approx(before + cost.indirection_lookup)

    def test_counters(self):
        layer = IndirectionLayer()
        layer.set(1, RecordID(0, 0))
        layer.resolve(1)
        layer.try_resolve(2)
        assert layer.resolutions == 2

    def test_remove_charges_cpu_like_set(self):
        cost = CostModel(indirection_lookup=1e-3)
        clock = SimClock(cost=cost)
        layer = IndirectionLayer(clock)
        layer.set(1, RecordID(0, 0))
        before = clock.now
        layer.remove(1)
        assert clock.now == pytest.approx(before + cost.indirection_lookup)
        assert layer.updates == 2

    def test_remove_unknown_vid_still_counts_as_update(self):
        layer = IndirectionLayer()
        layer.remove(99)  # vacuum may race an already-dropped chain
        assert layer.updates == 1
        assert len(layer) == 0
