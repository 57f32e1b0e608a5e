"""Unit tests for the shared buffer pool."""

import pytest

from repro.buffer.pool import BufferPool
from repro.config import CostModel
from repro.errors import BufferError_
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile


@pytest.fixture
def env():
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    file = PageFile("f", device, 8192, 8)
    pool = BufferPool(capacity_pages=4)
    return clock, device, file, pool


def _write_pages(file, n):
    pages = []
    for i in range(n):
        p = file.allocate_page()
        file.write_page(p, f"payload-{i}")
        pages.append(p)
    return pages


class TestHitsAndMisses:
    def test_first_get_is_miss(self, env):
        _c, _d, f, pool = env
        (p,) = _write_pages(f, 1)
        pool.get(f, p)
        stats = pool.stats_for(f)
        assert stats.requests == 1
        assert stats.hits == 0

    def test_second_get_is_hit(self, env):
        _c, _d, f, pool = env
        (p,) = _write_pages(f, 1)
        pool.get(f, p)
        pool.get(f, p)
        assert pool.stats_for(f).hits == 1

    def test_miss_charges_device(self, env):
        clock, _d, f, pool = env
        (p,) = _write_pages(f, 1)
        before = clock.now
        pool.get(f, p)
        after_miss = clock.now
        pool.get(f, p)
        assert after_miss > before
        assert clock.now == after_miss   # a bare pool charges its own clock

    def test_hit_rate(self, env):
        _c, _d, f, pool = env
        (p,) = _write_pages(f, 1)
        pool.get(f, p)
        pool.get(f, p)
        pool.get(f, p)
        assert pool.stats_for(f).hit_rate == pytest.approx(2 / 3)


class TestEviction:
    def test_capacity_respected(self, env):
        _c, _d, f, pool = env
        pages = _write_pages(f, 6)
        for p in pages:
            pool.get(f, p)
        assert pool.resident_pages == 4
        assert pool.evictions == 2

    def test_lru_eviction_order(self, env):
        _c, _d, f, pool = env
        pages = _write_pages(f, 5)
        for p in pages[:4]:
            pool.get(f, p)
        pool.get(f, pages[0])   # refresh page 0
        pool.get(f, pages[4])   # evicts page 1, not 0
        assert pool.contains(f, pages[0])
        assert not pool.contains(f, pages[1])

    def test_put_on_resident_page_refreshes_recency(self, env):
        _c, _d, f, pool = env
        pages = _write_pages(f, 5)
        for p in pages[:4]:
            pool.get(f, p)
        pool.put(f, pages[0], "rewritten", dirty=False)
        pool.get(f, pages[4])   # evicts page 1: the put refreshed page 0
        assert pool.contains(f, pages[0])
        assert not pool.contains(f, pages[1])

    def test_discarded_and_dropped_pages_are_never_victims(self, env):
        _c, d, f, pool = env
        g = PageFile("g", d, 8192, 8)
        pages = _write_pages(f, 3)
        (other,) = _write_pages(g, 1)
        pool.get(g, other)      # oldest frame, then dropped with its file
        for p in pages:
            pool.get(f, p)
        pool.discard(f, pages[0])
        assert pool.drop_file(g) == 1
        fresh = _write_pages(f, 3)
        for p in fresh[:2]:
            pool.get(f, p)      # fills the two freed frames: no eviction
        assert pool.evictions == 0
        pool.get(f, fresh[2])   # the victim is the oldest page still held
        assert pool.evictions == 1
        assert not pool.contains(f, pages[1])
        assert pool.contains(f, pages[2])
        assert pool.resident_pages == 4

    def test_impossible_eviction_raises(self, env):
        _c, _d, f, _pool = env
        (p,) = _write_pages(f, 1)
        with pytest.raises(BufferError_):
            BufferPool(0).get(f, p)

    def test_dirty_page_written_back_on_eviction(self, env):
        _c, d, f, pool = env
        pages = _write_pages(f, 5)
        pool.get(f, pages[0])
        pool.mark_dirty(f, pages[0])
        writes_before = f.physical_writes
        for p in pages[1:]:
            pool.get(f, p)
        assert f.physical_writes == writes_before + 1
        assert pool.dirty_writebacks == 1

    def test_clean_page_dropped_silently(self, env):
        _c, _d, f, pool = env
        pages = _write_pages(f, 5)
        writes_before = f.physical_writes
        for p in pages:
            pool.get(f, p)
        assert f.physical_writes == writes_before


class TestPutFlushDiscard:
    def test_put_installs_without_read(self, env):
        _c, _d, f, pool = env
        p = f.allocate_page()
        pool.put(f, p, "fresh", dirty=True)
        assert pool.get(f, p) == "fresh"
        assert pool.stats_for(f).hits == 1

    def test_flush_writes_dirty_pages(self, env):
        _c, _d, f, pool = env
        p = f.allocate_page()
        pool.put(f, p, "fresh", dirty=True)
        flushed = pool.flush(f)
        assert flushed == 1
        assert f.peek(p) == "fresh"

    def test_flush_all_files(self, env):
        clock, d, f, pool = env
        f2 = PageFile("g", d, 8192, 8)
        p1, p2 = f.allocate_page(), f2.allocate_page()
        pool.put(f, p1, "a")
        pool.put(f2, p2, "b")
        assert pool.flush() == 2

    def test_discard_drops_without_writeback(self, env):
        _c, _d, f, pool = env
        p = f.allocate_page()
        pool.put(f, p, "x", dirty=True)
        pool.discard(f, p)
        assert not pool.contains(f, p)
        assert pool.flush(f) == 0

    def test_get_or_create_uses_factory(self, env):
        _c, _d, f, pool = env
        p = f.allocate_page()
        page = pool.get_or_create(f, p, lambda: "created")
        assert page == "created"

    def test_get_or_create_prefers_persisted(self, env):
        _c, _d, f, pool = env
        (p,) = _write_pages(f, 1)
        page = pool.get_or_create(f, p, lambda: "created")
        assert page == "payload-0"


class TestCPUCharging:
    def test_page_cpu_charged_per_request(self):
        cost = CostModel(page_cpu=1e-3)
        clock = SimClock(cost=cost)
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = PageFile("f", device, 8192, 8)
        pool = BufferPool(4, clock=clock)
        p = file.allocate_page()
        pool.put(file, p, "x", dirty=False)
        before = clock.now
        pool.get(file, p)   # hit: CPU only
        assert clock.now == pytest.approx(before + cost.page_cpu)
