"""Property tests: a page-grouped fetch equals the per-row fetches.

``VersionStore.fetch_many`` is the only way a scan reads its result rows;
it must be extensionally ``[fetch(r) for r in rids]`` on every storage
model — for rid lists that interleave pages, repeat rids, revisit a page,
reach into SIAS tail pages that were never flushed, or name a dead slot,
a negative slot, a hole inside a same-page run or a payload that is not a
version (same :class:`TupleNotFoundError`) — while asking the buffer pool
once per distinct page, in first-occurrence order, instead of once per
row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.pool import BufferPool
from repro.errors import TupleNotFoundError
from repro.sim.clock import SimClock
from repro.sim.device import SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.pagefile import PageFile
from repro.storage.recordid import RecordID
from repro.table.delta import DeltaTable
from repro.table.heap import HeapTable
from repro.table.sias import SIASTable
from repro.txn.manager import TransactionManager

ROWS = 120          # ~12 rows per 1 KiB page: a dozen pages per store
STORES = ("heap", "sias", "delta")


def build(kind: str):
    """A store with ROWS rows over many small pages, every third row
    updated once; returns ``(store, pool, files, live rids)``."""
    clock = SimClock()
    device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
    pool = BufferPool(64)
    main = PageFile(kind, device, 1024, 4)
    files = [main]
    if kind == "heap":
        store = HeapTable(kind, main, pool)
    elif kind == "sias":
        store = SIASTable(kind, main, pool)
    else:
        files.append(PageFile(kind + ".pool", device, 1024, 4))
        store = DeltaTable(kind, main, files[1], pool)
    mgr = TransactionManager(clock)
    txn = mgr.begin()
    rids = [store.insert(txn, (i, "v" * 40))[1] for i in range(ROWS)]
    for i in range(0, ROWS, 3):
        rids.append(store.update(txn, rids[i], (i, "w" * 40)))
    txn.commit()
    return store, pool, files, sorted(set(rids))


def requests(pool: BufferPool, files) -> int:
    return sum(pool.stats_for(f).requests for f in files)


@pytest.mark.parametrize("kind", STORES)
def test_empty_list_asks_for_nothing(kind):
    store, pool, files, _rids = build(kind)
    before = requests(pool, files)
    assert store.fetch_many([]) == []
    assert requests(pool, files) == before


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(STORES),
       picks=st.lists(st.integers(min_value=0, max_value=10_000),
                      min_size=1, max_size=60))
def test_fetch_many_equals_per_row_fetch(kind, picks):
    store, pool, files, rids = build(kind)
    wanted = [rids[p % len(rids)] for p in picks]      # interleaved, repeats
    expected = [store.fetch(rid) for rid in wanted]
    before = requests(pool, files)
    assert store.fetch_many(wanted) == expected
    asked = requests(pool, files) - before
    tail = getattr(store, "_tail", {})
    assert asked == len({rid.page for rid in wanted if rid.page not in tail})


def test_sias_tail_pages_cost_no_pool_request():
    store, pool, files, rids = build("sias")
    assert store._tail, "the newest pages must still be unflushed"
    in_tail = [rid for rid in rids if rid.page in store._tail]
    flushed = [rid for rid in rids if rid.page not in store._tail]
    assert in_tail and flushed
    before = requests(pool, files)
    mixed = [in_tail[0], flushed[0], in_tail[-1], flushed[0]]
    assert store.fetch_many(mixed) == [store.fetch(r) for r in mixed]
    # one grouped request, then one per per-row fetch of the flushed rid
    assert requests(pool, files) - before == 1 + 2


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(STORES),
       picks=st.lists(st.integers(min_value=0, max_value=10_000),
                      min_size=0, max_size=20),
       dead_at=st.integers(min_value=0, max_value=20),
       vacated=st.booleans())
def test_dead_slot_raises_like_fetch(kind, picks, dead_at, vacated):
    """A vacuumed slot (or one past the page's end) anywhere in the list
    raises the TupleNotFoundError the per-row loop would raise."""
    store, _pool, _files, rids = build(kind)
    victim = rids[len(rids) // 2]
    if vacated:
        store._page(victim.page).delete(victim.slot)
        dead = victim
    else:
        dead = RecordID(victim.page, 10_000)
    wanted = [rids[p % len(rids)] for p in picks if
              rids[p % len(rids)] != victim]
    wanted.insert(min(dead_at, len(wanted)), dead)
    with pytest.raises(TupleNotFoundError) as per_row:
        [store.fetch(rid) for rid in wanted]
    with pytest.raises(TupleNotFoundError) as grouped:
        store.fetch_many(wanted)
    assert str(grouped.value) == str(per_row.value)


# ------------------------------------------------- the page-run kernel's edges


def same_page_run(rids, length=5):
    """``length`` live rids on one page, in slot order."""
    by_page = {}
    for rid in rids:
        by_page.setdefault(rid.page, []).append(rid)
    run = next(run for run in by_page.values() if len(run) >= length)
    return sorted(run)[:length]


def raises_like_fetch(store, wanted):
    """fetch_many fails on ``wanted`` with the per-row loop's error."""
    with pytest.raises(TupleNotFoundError) as per_row:
        [store.fetch(rid) for rid in wanted]
    with pytest.raises(TupleNotFoundError) as grouped:
        store.fetch_many(wanted)
    assert str(grouped.value) == str(per_row.value)


@pytest.mark.parametrize("kind", STORES)
def test_negative_slot_raises_like_fetch(kind):
    """A negative slot must not wrap around to the page's last payload."""
    store, _pool, _files, rids = build(kind)
    run = same_page_run(rids)
    raises_like_fetch(store, [*run[:2], RecordID(run[0].page, -1), *run[2:]])


@pytest.mark.parametrize("kind", STORES)
def test_hole_inside_a_same_page_run_raises_like_fetch(kind):
    store, _pool, _files, rids = build(kind)
    run = same_page_run(rids)
    store._page(run[2].page).delete(run[2].slot)
    raises_like_fetch(store, run)


@pytest.mark.parametrize("kind", STORES)
def test_foreign_payload_raises_like_fetch(kind):
    store, _pool, _files, rids = build(kind)
    run = same_page_run(rids)
    store._page(run[2].page).update(run[2].slot, ("not", "a version"), 8)
    raises_like_fetch(store, run)


def flushed_pages(store, rids):
    """The store's flushed pages (the ones a read asks the pool for), and
    the live rids on each."""
    tail = getattr(store, "_tail", {})
    pages = sorted({rid.page for rid in rids if rid.page not in tail})
    return pages, {p: [rid for rid in rids if rid.page == p] for p in pages}


def record_pages(store):
    """The page numbers ``store`` asks for from now on, in order."""
    asked = []
    page_of = store._page

    def recording(page_no):
        asked.append(page_no)
        return page_of(page_no)

    store._page = recording
    return asked


@pytest.mark.parametrize("kind", STORES)
def test_revisited_page_is_asked_once_in_first_occurrence_order(kind):
    """Rids on pages A, B, A: two runs on A, one request for A, and the
    requests go out in the order the pages first appear."""
    store, pool, files, rids = build(kind)
    pages, on = flushed_pages(store, rids)
    on_a, on_b = on[pages[3]], on[pages[1]]
    wanted = [*on_a[:2], *on_b[:3], *on_a[2:4]]
    expected = [store.fetch(rid) for rid in wanted]
    asked = record_pages(store)
    before = requests(pool, files)
    assert store.fetch_many(wanted) == expected
    assert requests(pool, files) - before == 2
    assert asked == [pages[3], pages[1]]


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("bad", ["hole", "foreign", "negative", "past_end"])
def test_a_failing_list_asks_only_the_pages_before_its_bad_rid(kind, bad):
    """Rids on pages A, B, A, C with a bad rid in the second run on A: like
    the per-row loop, the call raises having asked for A and B, never C."""
    store, pool, files, rids = build(kind)
    pages, on = flushed_pages(store, rids)
    on_a, on_b, on_c = on[pages[3]], on[pages[1]], on[pages[5]]
    victim = on_a[3]
    if bad == "hole":
        store._page(victim.page).delete(victim.slot)
    elif bad == "foreign":
        store._page(victim.page).update(victim.slot, ("not", "a version"), 8)
    else:
        victim = RecordID(victim.page, -1 if bad == "negative" else 10_000)
    wanted = [*on_a[:2], *on_b[:3], on_a[2], victim, *on_c[:3]]
    asked = record_pages(store)
    before = requests(pool, files)
    with pytest.raises(TupleNotFoundError):
        store.fetch_many(wanted)
    assert asked == [pages[3], pages[1]]
    assert requests(pool, files) - before == 2
