"""Unit tests for page files."""

import pytest

from repro.errors import (DeviceCrashError, PageNotFoundError,
                          StorageError)
from repro.sim.clock import SimClock
from repro.sim.device import FaultPlan, SimulatedDevice
from repro.sim.profiles import INTEL_DC_P3600
from repro.storage.pagefile import PageFile


@pytest.fixture
def setup():
    clock = SimClock()
    device = SimulatedDevice(INTEL_DC_P3600, clock)
    return clock, device, PageFile("f", device, 8192, 8)


class TestAllocation:
    def test_pages_numbered_sequentially(self, setup):
        _c, _d, f = setup
        assert f.allocate_page() == 0
        assert f.allocate_page() == 1

    def test_pages_within_extent_are_contiguous(self, setup):
        _c, d, f = setup
        f.allocate_page()
        f.allocate_page()
        assert f._addresses[1] == f._addresses[0] + 8192

    def test_free_page_is_reused(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        f.write_page(p, "x")
        f.free_page(p)
        assert f.allocate_page() == p

    def test_allocated_pages_counter(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        f.allocate_page()
        f.write_page(p, "x")
        f.free_page(p)
        assert f.allocated_pages == 1
        assert f.max_page_no == 2


class TestReadWrite:
    def test_write_then_read(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        f.write_page(p, {"data": 1})
        assert f.read_page(p) == {"data": 1}

    def test_read_unwritten_page_raises(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        with pytest.raises(PageNotFoundError):
            f.read_page(p)

    def test_read_unallocated_raises(self, setup):
        _c, _d, f = setup
        with pytest.raises(PageNotFoundError):
            f.read_page(99)

    def test_io_counters(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        f.write_page(p, "x")
        f.read_page(p)
        assert f.physical_writes == 1
        assert f.physical_reads == 1

    def test_io_charges_device(self, setup):
        clock, d, f = setup
        p = f.allocate_page()
        before = clock.now
        f.write_page(p, "x")
        assert clock.now > before

    def test_put_page_nocost_charges_nothing(self, setup):
        clock, _d, f = setup
        p = f.allocate_page()
        before = clock.now
        f.put_page_nocost(p, "x")
        assert clock.now == before
        assert f.peek(p) == "x"


class TestWriteRange:
    """Sector-granular writes into a byte-image page (the log tail)."""

    def test_charges_only_the_covered_sectors(self, setup):
        _c, d, f = setup
        no = f.allocate_page()
        assert f.write_page(no, b"a" * 100, offset=0) == 512
        # 600..700 lies inside the second sector
        assert f.write_page(no, b"b" * 100, offset=600) == 512
        # 1000..1100 straddles sectors two and three
        assert f.write_page(no, b"c" * 100, offset=1000) == 1024
        assert d.stats.bytes_written == 2048 and d.stats.writes == 3
        assert f.physical_writes == 3

    def test_addresses_the_sector_inside_the_page(self, setup):
        _c, d, f = setup
        f.allocate_page()
        no = f.allocate_page()
        d.trace.enable()
        f.write_page(no, b"x" * 10, offset=1300)
        (entry,) = d.trace.entries("W")
        assert entry.lba * 512 == f._addresses[no] + 1024
        assert entry.sectors == 1

    def test_splices_in_place_and_zero_fills_gaps(self, setup):
        _c, _d, f = setup
        no = f.allocate_page()
        f.write_page(no, b"abc", offset=0)
        f.write_page(no, b"def", offset=3)
        f.write_page(no, b"z", offset=8)
        assert bytes(f.read_page(no)) == b"abcdef\0\0z"

    def test_clean_crash_keeps_the_old_image(self, setup):
        _c, d, f = setup
        no = f.allocate_page()
        f.write_page(no, b"old", offset=0)
        d.set_fault_plan(FaultPlan(fail_at=d.io_count))
        with pytest.raises(DeviceCrashError):
            f.write_page(no, b"new", offset=3)
        assert bytes(f.peek(no)) == b"old"

    def test_torn_crash_persists_a_sector_prefix_of_the_delta(self, setup):
        _c, d, f = setup
        no = f.allocate_page()
        f.write_page(no, b"o" * 700, offset=0)
        # the request covers sectors 1..3 (512..2048); two of them persist
        d.set_fault_plan(FaultPlan(fail_at=d.io_count, mode="torn",
                                   fraction=0.7))
        with pytest.raises(DeviceCrashError):
            f.write_page(no, b"n" * 1300, offset=700)
        assert bytes(f.peek(no)) == b"o" * 700 + b"n" * (1536 - 700)

    def test_torn_inside_the_first_sector_changes_nothing(self, setup):
        _c, d, f = setup
        no = f.allocate_page()
        f.write_page(no, b"o" * 700, offset=0)
        d.set_fault_plan(FaultPlan(fail_at=d.io_count, mode="torn",
                                   fraction=0.1))
        with pytest.raises(DeviceCrashError):
            f.write_page(no, b"n" * 1300, offset=700)
        assert bytes(f.peek(no)) == b"o" * 700


    def test_ranged_write_rejects_object_payloads(self, setup):
        _c, d, f = setup
        no = f.allocate_page()
        with pytest.raises(StorageError):
            f.write_page(no, ["not", "bytes"], offset=0)
        assert d.stats.writes == 0


class TestAppendExtents:
    def test_append_returns_new_page_numbers(self, setup):
        _c, _d, f = setup
        nos = f.append_extents(["a", "b", "c"])
        assert nos == [0, 1, 2]
        assert f.peek(1) == "b"

    def test_append_issues_one_write_per_extent(self, setup):
        _c, d, f = setup
        f.append_extents([str(i) for i in range(20)])  # 20 pages, 8/extent
        assert f.physical_writes == 3

    def test_append_writes_are_sequential_on_device(self, setup):
        _c, d, f = setup
        f.append_extents([str(i) for i in range(24)])
        # first write random (no prior stream), the rest continue the stream
        assert d.stats.seq_writes == 2
        assert d.stats.rand_writes == 1

    def test_flush_pages_sequential_groups_runs(self, setup):
        _c, d, f = setup
        pages = [f.allocate_page() for _ in range(8)]
        f.flush_pages_sequential([(p, f"pl{p}") for p in pages])
        assert f.physical_writes == 1
        assert f.peek(pages[3]) == "pl3"

    def test_flush_pages_sequential_splits_noncontiguous(self, setup):
        _c, _d, f = setup
        pages = [f.allocate_page() for _ in range(3)]   # extent 1
        for _ in range(8):
            f.allocate_page()
        late = f.allocate_page()                         # later extent
        f.flush_pages_sequential([(pages[0], "a"), (pages[1], "b"),
                                  (late, "z")])
        assert f.physical_writes == 2


class TestReadPagesSequential:
    """The read twin of ``flush_pages_sequential`` (recovery's reads)."""

    @staticmethod
    def _written(f, n):
        pages = [f.allocate_page() for _ in range(n)]
        for p in pages:
            f.write_page(p, f"pl{p}")
        return pages

    def test_one_request_per_contiguous_run(self, setup):
        _c, d, f = setup
        self._written(f, 6)
        d.trace.enable()
        got = f.read_pages_sequential([0, 1, 2, 4, 5])
        assert got == ["pl0", "pl1", "pl2", "pl4", "pl5"]
        assert [(e.lba * 512, e.sectors * 512) for e in d.trace.entries("R")] \
            == [(f._addresses[0], 3 * 8192), (f._addresses[4], 2 * 8192)]
        assert f.physical_reads == 2

    def test_a_run_never_crosses_an_extent(self, setup):
        _c, d, f = setup
        self._written(f, 20)                 # extents: 0-7, 8-15, 16-19
        # the file's extents are adjacent on the device
        assert f._addresses[8] == f._addresses[7] + 8192
        d.trace.enable()
        f.read_pages_sequential(range(3, 18))
        extent = 8 * 8192
        reads = d.trace.entries("R")
        assert [(e.lba * 512 - f._addresses[0]) // 8192 for e in reads] \
            == [3, 8, 16]
        for e in reads:
            assert e.lba * 512 // extent == (e.end_lba * 512 - 1) // extent
        # one stream: every run after the first continues the previous one
        assert (d.stats.seq_reads, d.stats.rand_reads) == (2, 1)

    def test_contents_come_back_in_the_order_asked(self, setup):
        _c, _d, f = setup
        self._written(f, 4)
        assert f.read_pages_sequential([2, 0, 1]) == ["pl2", "pl0", "pl1"]
        assert f.physical_reads == 2          # [2], then [0, 1]

    def test_a_page_with_no_contents_raises_before_any_io(self, setup):
        _c, d, f = setup
        self._written(f, 3)
        hole = f.allocate_page()
        with pytest.raises(PageNotFoundError):
            f.read_pages_sequential([0, 1, hole])
        with pytest.raises(PageNotFoundError):
            f.read_pages_sequential([0, 99])
        assert d.stats.reads == 0

    def test_nothing_asked_reads_nothing(self, setup):
        _c, d, f = setup
        assert f.read_pages_sequential([]) == []
        assert d.stats.reads == 0


class TestFreePageReuse:
    """free_page / allocate_page reuse semantics (WAL truncation relies on
    these: a freed page's old contents must never resurface)."""

    def test_free_drops_contents(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        f.write_page(p, "stale")
        f.free_page(p)
        q = f.allocate_page()
        assert q == p
        with pytest.raises(PageNotFoundError):
            f.peek(q)
        with pytest.raises(PageNotFoundError):
            f.read_page(q)

    def test_free_unallocated_raises(self, setup):
        _c, _d, f = setup
        with pytest.raises(PageNotFoundError):
            f.free_page(0)

    def test_reused_page_keeps_device_address(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        addr = f._addresses[p]
        f.free_page(p)
        assert f.allocate_page() == p
        assert f._addresses[p] == addr

    def test_reuse_is_lifo_and_exhausts_before_growing(self, setup):
        _c, _d, f = setup
        pages = [f.allocate_page() for _ in range(3)]
        for p in pages:
            f.free_page(p)
        assert f.allocate_page() == pages[2]
        assert f.allocate_page() == pages[1]
        assert f.allocate_page() == pages[0]
        assert f.allocate_page() == 3          # free list empty: fresh page
        assert f.max_page_no == 4

    def test_double_free_then_double_allocate(self, setup):
        _c, _d, f = setup
        a, b = f.allocate_page(), f.allocate_page()
        f.free_page(a)
        f.free_page(b)
        assert {f.allocate_page(), f.allocate_page()} == {a, b}
        assert f.allocated_pages == 2


class TestPutPageNocost:
    """put_page_nocost installs contents without any device-side effect."""

    def test_no_sim_time_advance(self, setup):
        clock, _d, f = setup
        p = f.allocate_page()
        before = clock.now
        f.put_page_nocost(p, {"k": 1})
        assert clock.now == before
        assert f.peek(p) == {"k": 1}

    def test_no_trace_entry_and_no_stats(self, setup):
        _c, d, f = setup
        d.trace.enable()
        p = f.allocate_page()
        f.put_page_nocost(p, "payload")
        assert len(d.trace) == 0
        assert d.stats.reads == 0 and d.stats.writes == 0
        assert d.stats.bytes_written == 0

    def test_no_file_counter_bump(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        f.put_page_nocost(p, "x")
        assert f.physical_writes == 0
        assert f.physical_reads == 0

    def test_unallocated_page_rejected(self, setup):
        _c, _d, f = setup
        with pytest.raises(PageNotFoundError):
            f.put_page_nocost(7, "x")

    def test_overwrites_prior_contents(self, setup):
        _c, _d, f = setup
        p = f.allocate_page()
        f.write_page(p, "old")
        f.put_page_nocost(p, "new")
        assert f.peek(p) == "new"
        assert f.physical_writes == 1          # only the paid write counted
