"""The serving contract, once, over both engine bindings (DESIGN.md §15.1).

``SessionCore`` / ``ServerCore`` own what a session and a server *are* —
the one open transaction, the busy guard, the closed / no-transaction
checks, ``run`` and its retry loop, ``close``, the registry, its cap and
the ``serve.sessions.*`` instruments.  Everything here runs unchanged
against ``Database.serve()`` and ``ShardedDatabase(...).serve()``: a
behaviour asserted for one binding is asserted for the other.
"""

import threading
import time

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (SessionError, TransactionStateError,
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
