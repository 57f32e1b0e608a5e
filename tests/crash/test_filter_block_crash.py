"""Crash sweeps over the writes that create filter blocks (DESIGN.md §9.3).

A durable MV-PBT partition's filter block rides in the last extent append
of its run, ahead of the manifest flip that points at it.  These sweeps
kill the device at the I/Os of three such steps, in clean and torn mode:

* an eviction whose filter block spills into a fresh extent (two-page
  extents: a run of two full leaves leaves no room in its last extent);
* a tiered merge (input reads, the merged run's appends, the flip);
* a ``P_N`` checkpoint (the image append and the flip that now carries
  only pointers).

Each kill recovers with the harness's unmodified equivalence check —
including its assertion that recovery reads only manifest and WAL
extents — and two more facts: the recovered manifest is the newest one
whose flip completed before the kill (a kill before a flip recovers the
previous manifest), and every restored partition's filter block decodes.

By default each step is killed at its first, second and last I/O;
``--run-crash-sweep`` kills at every one.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import pytest

from repro.core import eviction, merge
from repro.durability.manifest import ManifestStore
from repro.engine.database import Database
from repro.index.filters import decode_filter_block
from repro.sim.device import FaultPlan

from .harness import recover_and_check, run_workload
from .test_checkpoint_crash import check_single, single_run

pytestmark = pytest.mark.crash

MODES = ("clean", "torn")
EXTENT_PAGES = 2


class Step(NamedTuple):
    kind: str        #: "evict" or "merge"
    lo: int          #: first I/O
    hi: int          #: I/O count once the step returned
    spilled: bool    #: the new partition's filter block opened an extent


def record(monkeypatch: pytest.MonkeyPatch
           ) -> tuple[list[Step], list[int]]:
    """Wrap the eviction and merge builders and the manifest flip: the
    steps of the next run, and the I/O count at the end of each flip."""
    steps: list[Step] = []
    flips: list[int] = []

    def wrap(kind: str, inner: Callable[..., Any]) -> Callable[..., Any]:
        def step(tree: Any, *args: Any, **kwargs: Any) -> Any:
            device = tree.file.device
            lo = device.io_count
            partition = inner(tree, *args, **kwargs)
            spilled = False
            if partition is not None:
                file = partition.run.file
                first = partition.run.trailer_page_nos[0]
                spilled = file._addresses[first] in file._extent_starts
            steps.append(Step(kind, lo, device.io_count, spilled))
            return partition
        return step

    write = ManifestStore.write

    def flip(store: ManifestStore, state: Any) -> None:
        write(store, state)
        flips.append(store.file.device.io_count)

    monkeypatch.setattr(eviction, "evict_partition",
                        wrap("evict", eviction.evict_partition))
    monkeypatch.setattr(merge, "merge_partitions",
                        wrap("merge", merge.merge_partitions))
    monkeypatch.setattr(ManifestStore, "write", flip)
    return steps, flips


def kill_points(lo: int, hi: int, exhaustive: bool) -> list[int]:
    return list(range(lo, hi)) if exhaustive else sorted({lo, lo + 1, hi - 1})


def check_blocks(recovered: Database, flips: list[int], k: int,
                 context: str) -> None:
    """The newest flip that completed before I/O ``k`` is the recovered
    manifest, and every partition it restored has a block that decodes."""
    assert recovered.durability is not None
    epoch = sum(1 for end in flips if end <= k)
    assert recovered.durability.manifest.epoch == epoch, (
        f"{context}: recovered epoch {recovered.durability.manifest.epoch}, "
        f"want {epoch}")
    for info in recovered.catalog.indexes:
        if not info.is_mvpbt:
            continue
        for part in info.mvpbt.persisted_partitions:
            run = part.run
            assert run.trailer_page_nos, f"{context}: P{part.number}"
            filters = decode_filter_block(
                [run.file.peek(n) for n in run.trailer_page_nos])
            assert filters.zone_map is not None
            assert len(filters.zone_map) == run.page_count


def harness_steps(monkeypatch: pytest.MonkeyPatch
                  ) -> tuple[list[Step], list[int]]:
    with monkeypatch.context() as patch:
        steps, flips = record(patch)
        run = run_workload(extent_pages=EXTENT_PAGES)
    assert not run.crashed
    return steps, flips


def test_the_harness_spills_a_block_and_merges(
        monkeypatch: pytest.MonkeyPatch) -> None:
    steps, flips = harness_steps(monkeypatch)
    evictions = [s for s in steps if s.kind == "evict"]
    assert any(s.spilled for s in evictions)
    assert any(s.kind == "merge" for s in steps)
    # one flip per step, and it is the step's last I/O
    assert all(s.hi in flips for s in steps)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ("evict", "merge"))
def test_filter_block_crash_sweep(kind: str, mode: str,
                                  monkeypatch: pytest.MonkeyPatch,
                                  run_crash_sweep: bool) -> None:
    """Kill at the I/Os of a spilled eviction or of a merge: recovery is
    oracle-equivalent, lands on the last completed flip, and every block
    it restored decodes."""
    steps, flips = harness_steps(monkeypatch)
    chosen = [s for s in steps
              if s.kind == kind and (kind == "merge" or s.spilled)]
    if not run_crash_sweep:
        chosen = chosen[:1]
    for step in chosen:
        for k in kill_points(step.lo, step.hi, run_crash_sweep):
            run = run_workload(FaultPlan(fail_at=k, mode=mode),
                               extent_pages=EXTENT_PAGES)
            assert run.crashed
            context = f"{kind} {mode} k={k}"
            recovered = recover_and_check(run, context=context)
            check_blocks(recovered, flips, k, context)


@pytest.mark.parametrize("mode", MODES)
def test_checkpoint_flip_crash_sweep(mode: str,
                                     monkeypatch: pytest.MonkeyPatch,
                                     run_crash_sweep: bool) -> None:
    """Kill at the I/Os of a ``P_N`` checkpoint, whose flip writes only
    pointers: the same three facts on the three-index database."""
    with monkeypatch.context() as patch:
        _steps, flips = record(patch)
        _db, run, spans = single_run("direct")
    assert not run.crashed and spans
    chosen = spans if run_crash_sweep else spans[:1]
    for _shard, lo, hi in chosen:
        assert hi in flips                  # the flip is its last I/O
        for k in kill_points(lo, hi, run_crash_sweep):
            db, crashed, _spans = single_run(
                "direct", FaultPlan(fail_at=k, mode=mode))
            assert crashed.crashed
            context = f"checkpoint {mode} k={k}"
            recovered = check_single(db, crashed, context)
            check_blocks(recovered, flips, k, context)
