"""Multi-threaded serving over the shard router (CI concurrency lane).

Real OS threads, invariant-only assertions: N concurrent sessions over a
4-shard router must (a) land on exactly the oracle state, (b) read
snapshot-exact cross-shard scans while writers commit around them —
every slice of a sliced scatter-gather scan comes from the session's one
global snapshot, never a torn mix — and (c) share the engine through the
FIFO fair scheduler even when their shards are disjoint (one engine slot
guards all shards: simulated devices and clocks are not thread-safe).
"""

import threading

import pytest

from repro.config import EngineConfig
from repro.index.base import TOP
from repro.obs.config import ObsConfig
from repro.serve import ServeConfig
from repro.shard import ShardConfig, ShardedDatabase

pytestmark = [pytest.mark.concurrency, pytest.mark.shard]

THREADS = 8
SHARDS = 4
TABLE = "t"
INDEX = "ix"


def make_server(durable=False, **serve_kw):
    config = EngineConfig(durability=durable,
                          obs=ObsConfig(enabled=True))
    router = ShardedDatabase(config, ShardConfig(shards=SHARDS))
    router.create_table(TABLE, [("id", "int"), ("val", "str")], "sias")
    router.create_index(INDEX, TABLE, ["id"], kind="mvpbt",
                        enable_gc=False, index_only_visibility=True)
    return router.serve(ServeConfig(**serve_kw))


class TestConcurrentSessions:
    def test_eight_sessions_match_oracle(self):
        server = make_server()
        per_thread = 25
        errors: list[BaseException] = []

        def client(slot: int) -> None:
            try:
                with server.session() as session:
                    for i in range(per_thread):
                        key = slot * 1000 + i

                        def work(s, key=key, slot=slot):
                            # two inserts per txn -> routinely cross-shard
                            s.insert(TABLE, (key, f"s{slot}"))
                            s.insert(TABLE, (key + 500, f"x{slot}"))
                            s.delete_by_key(INDEX, (key + 500,))

                        session.run(work)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with server.session() as session:
            session.begin()
            rows = list(session.batch_scan(INDEX))
            session.abort()
        want = sorted((slot * 1000 + i, f"s{slot}")
                      for slot in range(THREADS)
                      for i in range(per_thread))
        assert sorted(rows) == want
        stats = server.stats()
        assert stats["scheduler"]["ticks"] > 0
        assert server.active_sessions == 0
        server.close()

    def test_unique_global_txids_across_sessions(self):
        server = make_server()
        seen: list[int] = []
        lock = threading.Lock()
        errors: list[BaseException] = []

        def client() -> None:
            try:
                with server.session() as session:
                    for _ in range(50):
                        txid = session.begin()
                        with lock:
                            seen.append(txid)
                        session.abort()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client)
                   for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(seen) == len(set(seen)) == THREADS * 50
        server.close()


class TestSnapshotExactScans:
    def test_sliced_scan_is_snapshot_exact_under_commits(self):
        """A sliced cross-shard scan started before concurrent updates
        must return EXACTLY the begin-time state: no torn slices."""
        server = make_server(scan_slice_rows=8)
        base = {k: "base" for k in range(120)}
        with server.session() as session:
            def seed(s):
                for k, v in base.items():
                    s.insert(TABLE, (k, v))
            session.run(seed)

        started = threading.Event()
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(slot: int) -> None:
            try:
                with server.session() as session:
                    i = 0
                    while not stop.is_set():
                        key = slot * 10 + (i % 10)

                        def work(s, key=key, i=i, slot=slot):
                            s.update_by_key(INDEX, (key,),
                                            {"val": f"w{slot}.{i}"})
                            s.insert(TABLE,
                                     (1000 + slot * 100 + i, "new"))

                        session.run(work)
                        i += 1
                        started.set()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for t in writers:
            t.start()
        started.wait(timeout=30)
        try:
            with server.session() as session:
                session.begin()
                snap_rows = dict(session.batch_scan(INDEX, slice_rows=8))
                count = session.count_range(INDEX, None, None)
                session.abort()
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert not errors
        # the scan is one consistent cut: for every key the value is a
        # single committed version, and no key is ever half-present
        assert set(snap_rows) >= set(base), "snapshot lost base keys"
        for k in base:
            v = snap_rows[k]
            assert v == "base" or v.startswith("w"), v
        assert count == len(snap_rows)
        server.close()

    def test_held_session_snapshot_is_frozen(self):
        """Reads through one open transaction never move, even after
        other sessions commit cross-shard changes."""
        server = make_server()
        with server.session() as session:
            session.run(lambda s: [s.insert(TABLE, (k, "v0"))
                                   for k in range(40)])
        reader = server.session()
        reader.begin()
        before = list(reader.batch_scan(INDEX))
        with server.session() as other:
            def churn(s):
                for k in range(0, 40, 2):
                    s.update_by_key(INDEX, (k,), {"val": "v1"})
                for k in range(100, 110):
                    s.insert(TABLE, (k, "late"))
            other.run(churn)
        after = list(reader.batch_scan(INDEX))
        assert after == before == [(k, "v0") for k in range(40)]
        reader.abort()
        reader.close()
        server.close()


class TestBufferedScan:
    """What only a router shows of the sliced scan (DESIGN.md §15.1):
    the owner set, each hit pulled once, a layout change mid-scan.  The
    binding-agnostic rules run over both bindings in
    ``test_serve_contract.py::TestSlicedScan``."""

    def seeded(self, keys, **serve_kw):
        server = make_server(**serve_kw)
        with server.session() as session:
            session.run(lambda s: [s.insert(TABLE, (k, f"v{k}"))
                                   for k in keys])
        return server

    def counters(self, server):
        reg = server.router.obs.registry
        return {name: reg.counter_value(name) for name in (
            "shard.scan.hits_pulled", "shard.scan.runs_pulled",
            "serve.scan.slices")}

    @pytest.mark.parametrize("slice_rows", [1, 2, 7, 256])
    def test_each_hit_is_pulled_once(self, slice_rows):
        """hits pulled = rows emitted + the look-ahead hit of every run
        that did not exhaust its shard (at the parent: 2-4x the output)."""
        server = self.seeded(range(200))
        with server.session() as session:
            session.begin()
            rows = list(session.batch_scan(INDEX, slice_rows=slice_rows))
            session.abort()
        assert rows == [(k, f"v{k}") for k in range(200)]
        c = self.counters(server)
        assert 200 <= c["shard.scan.hits_pulled"] <= (
            200 + c["shard.scan.runs_pulled"])
        # a refill slot pulls at least one run; no slot pulls nothing
        assert 1 <= c["serve.scan.slices"] <= c["shard.scan.runs_pulled"]
        server.close()

    def test_pinned_range_asks_one_shard(self):
        server = make_server()
        router = server.router
        router.create_table("o", [("w", "int"), ("d", "int"), ("o", "int"),
                                  ("n", "int")], "sias", shard_key=["w"])
        router.create_index("o_ix", "o", ["w", "d", "o", "n"], kind="mvpbt",
                            enable_gc=False, index_only_visibility=True)
        rows = [(w, d, o, n) for w in range(1, 5) for d in range(3)
                for o in range(4) for n in range(3)]
        with server.session() as session:
            session.run(lambda s: [s.insert("o", row) for row in rows])
            session.begin()
            before = self.counters(server)
            got = list(session.batch_scan("o_ix", (2, 1, 3), (2, 1, 3, TOP),
                                          slice_rows=256))
            after = self.counters(server)
            assert got == [(2, 1, 3, n) for n in range(3)]
            assert after["shard.scan.runs_pulled"] - before[
                "shard.scan.runs_pulled"] == 1
            owner = router.partitioner.shard_of((2,))
            assert session.explain()["scan"] == {
                "index": "o_ix", "plan": "single-slot", "shards": [owner]}
            plan = router.explain_scan(session.txn, "o_ix", (2, 1),
                                       (2, 1, TOP))["routing"]
            assert (plan["plan"], plan["shards"]) == ("single-slot", [owner])
            assert plan["legs"] == [
                {"shard": owner, "lo": [2, 1], "hi": [2, 1, TOP]}]
            # an unpinned range asks, and reports, every shard
            list(session.batch_scan("o_ix", (2, 1), (3, 1)))
            assert session.explain()["scan"]["plan"] == "scatter-merge"
            assert session.explain()["scan"]["shards"] == [0, 1, 2, 3]
            session.abort()
        server.close()

    def test_layout_change_mid_scan_replans(self):
        """A rebalance between two ``next()`` calls drops the buffers
        (their rids may have moved) and re-plans from the frontier."""
        server = self.seeded(range(80))
        router = server.router
        with server.session() as session:
            session.begin()
            scan = session.batch_scan(INDEX, slice_rows=5)
            seen = [next(scan) for _ in range(7)]
            for slot in range(router.shard_config.hash_slots):
                router.move_slot(slot, (slot * 7 + 3) % SHARDS)
            seen.extend(scan)
            session.abort()
        assert seen == [(k, f"v{k}") for k in range(80)]
        server.close()


class TestFairness:
    def test_disjoint_shard_sessions_share_one_fifo_slot(self):
        """Sessions whose keys live on different shards still serialize
        through the one FIFO engine slot — ticks account every entry."""
        server = make_server()
        errors: list[BaseException] = []
        done: list[int] = []
        lock = threading.Lock()

        def client(slot: int) -> None:
            try:
                with server.session() as session:
                    for i in range(20):
                        session.run(lambda s, key=slot * 1000 + i:
                                    s.insert(TABLE, (key, "x")))
                    with lock:
                        done.append(slot)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sorted(done) == list(range(THREADS)), \
            "every session must finish (no starvation)"
        stats = server.stats()
        kinds = stats["scheduler"]["kinds"]
        assert stats["scheduler"]["ticks"] == sum(
            k["grants"] for k in kinds.values())
        assert kinds["oltp"]["grants"] > 0
        server.close()

    def test_scans_interleave_with_oltp(self):
        """Slice boundaries release the slot: short transactions commit
        WHILE a sliced scan is in flight (scan kind ticks recorded)."""
        server = make_server(scan_slice_rows=4)
        with server.session() as session:
            session.run(lambda s: [s.insert(TABLE, (k, "v"))
                                   for k in range(64)])
        commits = []
        errors: list[BaseException] = []

        def oltp() -> None:
            try:
                with server.session() as session:
                    for i in range(30):
                        session.run(lambda s, key=2000 + i:
                                    s.insert(TABLE, (key, "o")))
                        commits.append(i)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=oltp)
        with server.session() as session:
            session.begin()
            scan = session.batch_scan(INDEX, slice_rows=4)
            first = [next(scan) for _ in range(8)]
            t.start()
            rest = list(scan)
            session.abort()
        t.join()
        assert not errors
        assert [k for k, _v in first + rest] == sorted(
            k for k, _v in first + rest)
        assert len(first + rest) >= 64
        kinds = server.stats()["scheduler"]["kinds"]
        assert kinds["scan"]["grants"] > 1, "scan must slice the slot"
        server.close()


class TestServerMetrics:
    def test_session_and_latency_accounting(self):
        server = make_server(durable=True)
        with server.session() as session:
            session.begin()
            for k in range(10):
                session.insert(TABLE, (k, "v"))
            latency = session.commit()
        assert latency > 0.0, "durable cross-shard commit costs sim time"
        reg = server.router.obs.registry
        assert reg.counter_value("serve.sessions.opened") == 1
        assert reg.counter_value("serve.sessions.closed") == 1
        assert reg.counter_value("shard.txn.commits.cross_shard") == 1
        server.close()

    def test_commit_latency_is_the_commits_own_time(self):
        """A commit's latency is the largest advance of any one clock it
        moved, not how far it moved the busiest clock: after 50 commits
        on one shard, a commit on another shard costs what it costs."""
        server = make_server(durable=True)
        router = server.router
        owner = router.partitioner.shard_of
        busy = [k for k in range(1000) if owner((k,)) == 0][:51]
        quiet = next(k for k in range(1000) if owner((k,)) == 1)
        clocks = [router.clock, *(db.clock for db in router.shards)]
        hist = router.obs.registry.get("serve.commit.latency_us")
        with server.session() as session:
            for k in busy[:-1]:
                session.begin()
                session.insert(TABLE, (k, "v"))
                session.commit()
            observed = hist.total
            latencies = []
            for k in (busy[-1], quiet):
                session.begin()
                session.insert(TABLE, (k, "v"))
                before = [clock.now for clock in clocks]
                latencies.append(session.commit())
                assert session.last_commit_latency_s == latencies[-1]
                own = max(clock.now - t for clock, t in zip(clocks, before))
                assert latencies[-1] == pytest.approx(own)
        on_busy, on_quiet = latencies
        assert on_quiet == pytest.approx(on_busy, rel=0.5)
        assert hist.total - observed == pytest.approx(
            (on_busy + on_quiet) * 1e6)
        server.close()
