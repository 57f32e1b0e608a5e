"""The serving contract, once, over both engine bindings (DESIGN.md §15.1).

``SessionCore`` / ``ServerCore`` own what a session and a server *are* —
the one open transaction, the busy guard, the closed / no-transaction
checks, ``run`` and its retry loop, ``close``, the sliced scan, the
registry, its cap and the ``serve.sessions.*`` instruments.  Everything
here runs unchanged against ``Database.serve()`` and
``ShardedDatabase(...).serve()``: a behaviour asserted for one binding is
asserted for the other.
"""

import threading
import time

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (ConfigError, SessionError, TransactionStateError,
                          WriteConflictError)
from repro.obs.config import ObsConfig
from repro.serve import ServeConfig, Server, ShardServer
from repro.shard import ShardConfig, ShardedDatabase

ROWS = [(k, f"v{k}") for k in range(40)]


def serve(binding, **serve_kw):
    config = EngineConfig(obs=ObsConfig(enabled=True))
    engine = (Database(config) if binding == "database"
              else ShardedDatabase(config, ShardConfig(shards=3)))
    engine.create_table("t", [("k", "int"), ("v", "str")])
    engine.create_index("ix", "t", ["k"], kind="mvpbt")
    server = engine.serve(ServeConfig(**serve_kw))
    assert isinstance(server, Server if binding == "database"
                      else ShardServer)
    with server.session() as loader:
        loader.begin()
        for row in ROWS:
            loader.insert("t", row)
        loader.commit()
    return server


@pytest.fixture(params=["database", "sharded"])
def server(request):
    with serve(request.param) as server:
        yield server


def counter(server, name):
    return server.engine.obs.registry.counter_value(name)


def scan_grants(server):
    return server.scheduler.stats().get("scan", {}).get("grants", 0)


def batch_scan_outcome(session, index, slice_rows, timeout=10.0):
    """Drain ``session.batch_scan(index, slice_rows=...)`` on a watchdog
    thread: the row count or the ConfigError it raised.  A scan that
    never returns fails the test instead of hanging the suite."""
    outcome: list[BaseException | int] = []

    def drive() -> None:
        try:
            outcome.append(len(list(
                session.batch_scan(index, slice_rows=slice_rows))))
        except ConfigError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=drive, daemon=True)
    worker.start()
    worker.join(timeout=timeout)
    assert not worker.is_alive(), (
        f"batch_scan(slice_rows={slice_rows}) never returns")
    return outcome[0]


#: every statement, as a call on a session with no open transaction
STATEMENTS = {
    "insert": lambda s: s.insert("t", (99, "x")),
    "select": lambda s: s.select("ix", (1,)),
    "select_hits": lambda s: s.select_hits("ix", (1,)),
    "range_select": lambda s: s.range_select("ix", (1,), (5,)),
    "range_hits": lambda s: s.range_hits("ix", (1,), (5,)),
    "update_by_key": lambda s: s.update_by_key("ix", (1,), {"v": "y"}),
    "delete_by_key": lambda s: s.delete_by_key("ix", (1,)),
    "batch_scan": lambda s: list(s.batch_scan("ix")),
    "count_range": lambda s: s.count_range("ix", None, None),
    "scan_limit": lambda s: s.scan_limit("ix", None, 3),
    "commit": lambda s: s.commit(),
    "abort": lambda s: s.abort(),
    "txn": lambda s: s.txn,
}


class TestSessionCore:
    def test_nested_begin_raises_and_keeps_the_transaction(self, server):
        with server.session() as s:
            txid = s.begin()
            with pytest.raises(SessionError, match="still open"):
                s.begin()
            assert s.in_txn and s.txn.id == txid

    @pytest.mark.parametrize("statement", sorted(STATEMENTS))
    def test_statement_without_transaction_raises(self, server, statement):
        with server.session() as s:
            with pytest.raises(TransactionStateError, match="no open"):
                STATEMENTS[statement](s)
            assert not s.in_txn
            s.begin()       # the failed statement left the session usable
            assert s.select("ix", (1,)) == [(1, "v1")]

    @pytest.mark.parametrize("statement", ["begin", *sorted(STATEMENTS)])
    def test_use_after_close_raises(self, server, statement):
        s = server.session()
        s.close()
        s.close()           # idempotent
        call = STATEMENTS.get(statement, lambda s: s.begin())
        with pytest.raises(SessionError, match="closed"):
            call(s)

    def test_two_threads_on_one_session_raise(self, server):
        """A second thread entering a statement while the first is still
        inside one (parked on the engine slot this test holds) is misuse."""
        s = server.session()
        s.begin()
        first: list[object] = []
        server.scheduler.acquire("oltp")
        try:
            worker = threading.Thread(
                target=lambda: first.append(s.select("ix", (2,))),
                daemon=True)
            worker.start()
            deadline = time.monotonic() + 10.0
            while (server.scheduler.queue_depth == 0
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert server.scheduler.queue_depth == 1
            with pytest.raises(SessionError, match="two threads"):
                s.select("ix", (3,))
        finally:
            server.scheduler.release()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert first == [[(2, "v2")]]
        assert s.select("ix", (3,)) == [(3, "v3")]      # guard released
        s.close()

    def test_close_aborts_the_open_transaction_and_frees_its_slot(
            self, server):
        before = server.active_sessions
        s = server.session()
        s.begin()
        s.insert("t", (100, "never"))
        txn = s.txn
        assert server.active_sessions == before + 1
        s.close()
        assert not txn.is_active and not s.in_txn
        assert server.active_sessions == before
        with server.session() as reader:
            reader.begin()
            assert reader.select("ix", (100,)) == []

    @pytest.mark.parametrize("retries", [0, 2])
    def test_run_retries_write_conflicts_then_reraises(self, server,
                                                       retries):
        attempts: list[int] = []

        def always_conflicts(s):
            attempts.append(s.txn.id)
            s.insert("t", (200 + len(attempts), "lost"))
            raise WriteConflictError("first updater wins")

        with server.session() as s:
            with pytest.raises(WriteConflictError):
                s.run(always_conflicts, retries=retries)
            assert len(attempts) == retries + 1
            assert len(set(attempts)) == retries + 1    # fresh txn each
            assert not s.in_txn and s.commits == 0
            assert s.run(lambda s: s.count_range("ix", None, None)) == \
                len(ROWS)

    def test_run_commits_once_a_retry_succeeds(self, server):
        calls: list[int] = []

        def conflicts_once(s):
            calls.append(1)
            if len(calls) == 1:
                raise WriteConflictError("first updater wins")
            s.insert("t", (300, "won"))
            return "done"

        with server.session() as s:
            assert s.run(conflicts_once) == "done"
            assert len(calls) == 2 and s.commits == 1 and not s.in_txn
            assert s.run(lambda s: s.select("ix", (300,))) == [(300, "won")]

    def test_run_aborts_on_any_other_exception(self, server):
        calls: list[int] = []

        def explodes(s):
            calls.append(1)
            s.insert("t", (400, "never"))
            raise RuntimeError("exploded")

        with server.session() as s:
            with pytest.raises(RuntimeError, match="exploded"):
                s.run(explodes)
            assert calls == [1] and not s.in_txn and s.commits == 0
            assert s.run(lambda s: s.select("ix", (400,))) == []

    def test_run_leaves_a_transaction_its_body_finished_alone(self, server):
        with server.session() as s:
            assert s.run(lambda s: s.commit()) >= 0.0
            s.run(lambda s: s.abort())
            assert s.commits == 1 and not s.in_txn

    def test_keyed_dml_and_the_limit_scan_read_the_same(self, server):
        with server.session() as s:
            s.begin()
            assert s.update_by_key("ix", (5,), {"v": "new"}) == 1
            assert s.delete_by_key("ix", (6,)) == 1
            assert s.delete_by_key("ix", (6,)) == 0
            assert s.scan_limit("ix", (4,), 3) == [
                (4, "v4"), (5, "new"), (7, "v7")]
            assert s.scan_limit("ix", (38,), 10) == [
                (38, "v38"), (39, "v39")]
            assert s.count_range("ix", None, None) == len(ROWS) - 1
            s.commit()

    def test_commit_books_and_introspection(self, server):
        with server.session() as s:
            assert repr(s) == f"{type(s).__name__}(id={s.id}, idle)"
            txid = s.begin()
            assert repr(s) == f"{type(s).__name__}(id={s.id}, txn={txid})"
            s.insert("t", (500, "x"))
            latency = s.commit()
            assert latency >= 0.0 and s.last_commit_latency_s == latency
            assert s.commits == 1
            assert s.explain().items() >= {
                "session": s.id, "in_txn": False, "commits": 1,
                "closed": False}.items()
        assert s.explain()["closed"] and repr(s).endswith("closed)")


class TestServerCore:
    @pytest.mark.parametrize("binding", ["database", "sharded"])
    def test_session_cap_and_slot_reuse(self, binding):
        with serve(binding, max_sessions=2) as server:
            a, b = server.session(), server.session()
            with pytest.raises(SessionError, match="cap"):
                server.session()
            a.close()
            c = server.session()        # the freed slot is reusable
            assert {b.id, c.id}.isdisjoint({a.id})
            assert server.active_sessions == 2

    def test_close_closes_sessions_and_refuses_new_ones(self, server):
        idle, busy = server.session(), server.session()
        busy.begin()
        busy.insert("t", (600, "never"))
        txn = busy.txn
        server.close()
        server.close()      # idempotent
        assert server.active_sessions == 0
        assert not txn.is_active
        for session in (idle, busy):
            with pytest.raises(SessionError, match="closed"):
                session.begin()
        with pytest.raises(SessionError, match="closed"):
            server.session()

    def test_session_instruments(self, server):
        opened = counter(server, "serve.sessions.opened")
        closed = counter(server, "serve.sessions.closed")
        gauge = server.engine.obs.registry.gauge("serve.sessions.active")
        a, b = server.session(), server.session()
        assert counter(server, "serve.sessions.opened") == opened + 2
        assert gauge.value == server.active_sessions == 2
        a.close()
        a.close()           # a second close is not a second departure
        assert counter(server, "serve.sessions.closed") == closed + 1
        assert gauge.value == 1
        slices = counter(server, "serve.scan.slices")
        b.begin()
        assert len(list(b.batch_scan("ix", slice_rows=8))) == len(ROWS)
        assert counter(server, "serve.scan.slices") > slices
        commits = server.engine.obs.registry.get("serve.commit.latency_us")
        before = commits.count
        b.commit()
        assert commits.count == before + 1
        b.close()
        assert gauge.value == 0

    def test_stats_share_the_core_keys(self, server):
        with server.session() as s:
            s.run(lambda s: s.select("ix", (1,)))
            stats = server.stats()
        assert stats["active_sessions"] == 1
        assert stats["scheduler"]["ticks"] == server.scheduler.ticks > 0
        assert "oltp" in stats["scheduler"]["kinds"]


class TestSlicedScan:
    """The one sliced scan (``SessionCore.batch_scan``): a single node is
    its one-leg case, the router its many-leg case, and every rule holds
    for both."""

    @pytest.mark.parametrize("bounds", [
        (None, None, True, True), ((5,), (30,), True, True),
        ((5,), (30,), False, False)], ids=["all", "incl", "excl"])
    @pytest.mark.parametrize("slice_rows", [1, 2, 7, 256])
    def test_slices_concatenate_to_the_range_read(self, server, slice_rows,
                                                  bounds):
        lo, hi, lo_incl, hi_incl = bounds
        grants = scan_grants(server)
        with server.session() as s:
            s.begin()
            want = s.range_select("ix", lo, hi, lo_incl=lo_incl,
                                  hi_incl=hi_incl)
            got = list(s.batch_scan("ix", lo, hi, lo_incl=lo_incl,
                                    hi_incl=hi_incl, slice_rows=slice_rows))
            s.abort()
        assert got == want and len(want) in (len(ROWS), 26, 24)
        # one slot per refill and one per fetched chunk, at least a
        # chunk per slice_rows rows
        assert scan_grants(server) - grants >= len(got) / slice_rows

    def test_equal_key_runs_longer_than_a_slice_are_never_split(
            self, server):
        server.engine.create_index("by_v", "t", ["v"], kind="mvpbt")
        dups = [(100 + k, "dup") for k in range(12)]
        with server.session() as s:
            s.run(lambda s: [s.insert("t", row) for row in dups])
            s.begin()
            want = sorted(s.range_select("by_v", None, None))
            for slice_rows in (1, 2, 7, 256):
                got = list(s.batch_scan("by_v", slice_rows=slice_rows))
                assert [v for _k, v in got] == sorted(v for _k, v in got)
                assert sorted(got) == want == sorted(ROWS + dups)
            # an own write mid-run re-plans at the frontier, which a
            # fetched chunk never leaves inside a run
            scan = s.batch_scan("by_v", slice_rows=2)
            seen = [next(scan) for _ in range(3)]
            s.insert("t", (200, "zzz"))
            seen.extend(scan)
            assert sorted(seen) == sorted(want + [(200, "zzz")])
            s.abort()

    @pytest.mark.parametrize("slice_rows", [0, -1])
    def test_slice_rows_below_one_is_rejected_not_spun_on(self, server,
                                                          slice_rows):
        """With ``want = 0`` the refill loop could never advance (a
        livelock that also took a scheduler slot per spin)."""
        slices = counter(server, "serve.scan.slices")
        with server.session() as s:
            s.begin()
            outcome = batch_scan_outcome(s, "ix", slice_rows)
        assert isinstance(outcome, ConfigError)
        assert "scan_slice_rows must be >= 1" in str(outcome)
        assert counter(server, "serve.scan.slices") == slices

    def test_rows_committed_between_slices_stay_invisible(self, server):
        writer, scanner = server.session(), server.session()
        scanner.begin()
        scan = scanner.batch_scan("ix", slice_rows=5)
        seen = [next(scan) for _ in range(8)]           # partway through
        writer.run(lambda s: (
            [s.insert("t", (k, "mid-scan")) for k in range(100, 140)],
            s.update_by_key("ix", (20,), {"v": "moved-on"}),
            s.delete_by_key("ix", (30,))))
        seen.extend(scan)
        assert seen == ROWS
        scanner.abort()
        scanner.begin()                  # a new snapshot sees the writes
        assert scanner.count_range("ix", None, None) == len(ROWS) + 39
        scanner.close()
        writer.close()

    def test_own_writes_between_next_calls(self, server):
        """A session that writes between two ``next()`` calls of its own
        scan: rows already materialised stay as they were, everything
        past them is read with the writes applied — as a fresh cursor
        per slice would read them."""
        with server.session() as s:
            s.begin()
            scan = s.batch_scan("ix", slice_rows=4)
            seen = [next(scan) for _ in range(3)]       # 0, 1, 2
            s.insert("t", (-5, "behind"))               # behind: never seen
            s.update_by_key("ix", (3,), {"v": "late"})
            s.update_by_key("ix", (5,), {"v": "five"})  # maybe buffered
            s.update_by_key("ix", (30,), {"v": "changed"})
            s.delete_by_key("ix", (35,))
            s.insert("t", (1000, "ahead"))
            s.update_by_key("ix", (1,), {"k": 500})    # moves ahead
            seen.extend(scan)
            s.abort()
        expect = [row for row in ROWS if row[0] != 35]
        expect[5], expect[30] = (5, "five"), (30, "changed")
        expect += [(500, "v1"), (1000, "ahead")]
        # key 3 sat in the chunk materialised before the writes
        assert seen == expect

    def test_version_oblivious_index_falls_back(self, server):
        """No bounded cursor without index-only visibility: the range is
        read in one materialising slot, whatever ``slice_rows`` says."""
        server.engine.create_index("ob", "t", ["k"], kind="mvpbt",
                                   index_only_visibility=False,
                                   enable_gc=False)
        slices = counter(server, "serve.scan.slices")
        with server.session() as s:
            s.begin()
            want = s.range_select("ob", (2,), (5,))
            grants = scan_grants(server)
            got = list(s.batch_scan("ob", (2,), (5,), slice_rows=1))
            assert scan_grants(server) == grants + 1
            assert got == want == ROWS[2:6]
            assert list(s.batch_scan("ob")) == ROWS
            s.abort()
        assert counter(server, "serve.scan.slices") == slices
