"""Property tests: a page-grouped fetch equals the per-row fetches.

``VersionStore.fetch_many`` is the only way a scan reads its result rows;
it must be extensionally ``[fetch(r) for r in rids]`` on every storage
model — for rid lists that interleave pages, repeat rids, reach into SIAS
tail pages that were never flushed, or name a dead slot (same
:class:`TupleNotFoundError`) — while asking the buffer pool once per
distinct page instead of once per row.
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
