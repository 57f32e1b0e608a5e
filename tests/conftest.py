"""Shared fixtures: a small simulated engine substrate per test."""

from __future__ import annotations

import faulthandler
import os
import sys
from typing import Iterator

import pytest

from repro.buffer.pool import BufferPool
from repro.config import EngineConfig
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import INTEL_DC_P3600, UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.txn.manager import TransactionManager


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--run-crash-sweep", action="store_true", default=False,
        help="run the crash-point sweep exhaustively (every I/O index) "
             "instead of the quick sampled subset")
    parser.addoption(
        "--fuzz-interleavings", action="store_true", default=False,
        help="install the seeded schedule perturber at every lock "
             "boundary (repro.obs.race.SchedulePerturber) for the whole "
             "session — shakes the concurrency suites out of convoy "
             "schedules")
    parser.addoption(
        "--fuzz-seed", type=int, default=0,
        help="seed for --fuzz-interleavings (decision stream replays "
             "for a given seed)")


#: wall-clock seconds one test call may take before the run ends with
#: every thread's stack: about ten times the slowest test of any lane
LIMIT = 120.0

#: a copy of the real stderr, which output capture replaces during a test
_STDERR = pytest.StashKey[int]()


def pytest_configure(config: pytest.Config) -> None:
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())
    if config.getoption("--fuzz-interleavings"):
        from repro.obs.race import SchedulePerturber
        perturber = SchedulePerturber(int(config.getoption("--fuzz-seed")))
        perturber.install()
        config._fuzz_perturber = perturber  # type: ignore[attr-defined]


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(config.stash[_STDERR])
    perturber = getattr(config, "_fuzz_perturber", None)
    if perturber is not None:
        perturber.uninstall()
        del config._fuzz_perturber  # type: ignore[attr-defined]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: pytest.Item) -> Iterator[None]:
    """End a hung test with a stack dump instead of a killed job."""
    faulthandler.dump_traceback_later(LIMIT, exit=True,
                                      file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def run_crash_sweep(request: pytest.FixtureRequest) -> bool:
    """True when the exhaustive crash sweep was requested."""
    return bool(request.config.getoption("--run-crash-sweep"))


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def device(clock: SimClock) -> SimulatedDevice:
    return SimulatedDevice(UNIT_TEST_PROFILE, clock)


@pytest.fixture
def p3600(clock: SimClock) -> SimulatedDevice:
    return SimulatedDevice(INTEL_DC_P3600, clock)


@pytest.fixture
def config() -> EngineConfig:
    return EngineConfig()


@pytest.fixture
def pool() -> BufferPool:
    return BufferPool(capacity_pages=128)


@pytest.fixture
def small_pool() -> BufferPool:
    return BufferPool(capacity_pages=8)


@pytest.fixture
def pagefile(device: SimulatedDevice, config: EngineConfig) -> PageFile:
    return PageFile("test_file", device, config.page_size, config.extent_pages)


@pytest.fixture
def manager(clock: SimClock) -> TransactionManager:
    return TransactionManager(clock)
