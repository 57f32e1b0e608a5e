"""Unit tests for configuration validation."""

from dataclasses import fields

import pytest

from repro.config import CostModel, EngineConfig
from repro.errors import ConfigError
from repro.serve import ServeConfig


class TestEngineConfig:
    def test_defaults_valid(self):
        cfg = EngineConfig()
        assert cfg.page_size == 8192
        assert cfg.extent_bytes == 8192 * 8

    def test_page_size_too_small(self):
        with pytest.raises(ConfigError):
            EngineConfig(page_size=256)

    def test_extent_pages_positive(self):
        with pytest.raises(ConfigError):
            EngineConfig(extent_pages=0)

    def test_buffer_pool_minimum(self):
        with pytest.raises(ConfigError):
            EngineConfig(buffer_pool_pages=4)

    def test_option_surface_is_pinned(self):
        """Every field is one more configuration to test: a new one (or
        a deleted one coming back) has to change this list."""
        assert [f.name for f in fields(EngineConfig)] == [
            "page_size", "extent_pages", "buffer_pool_pages",
            "partition_buffer_bytes", "cost", "durability",
            "manifest_slot_pages", "obs"]
        assert [f.name for f in fields(ServeConfig)] == [
            "max_sessions", "scan_slice_rows", "group_size_target",
            "group_window_s"]
        with pytest.raises(TypeError):
            EngineConfig(seed=7)    # read nowhere, deleted
        with pytest.raises(TypeError):
            ServeConfig(parallel_scatter_gather=True)    # deleted
        with pytest.raises(TypeError):
            ServeConfig(group_commit=False)    # deleted

    def test_cost_model_is_per_instance(self):
        a, b = EngineConfig(), EngineConfig()
        assert a.cost is not b.cost

    def test_cost_model_frozen(self):
        cost = CostModel()
        with pytest.raises(Exception):
            cost.compare = 1.0  # type: ignore[misc]
