"""Functional tests for the multi-session serving layer.

Everything here is single-threaded (or trivially threaded through the
SessionExecutor): the layer's *behavioral* contract — session lifecycle,
served results identical to direct Database use, group-commit equivalence
and durability — must hold without any real concurrency.  The sliced
scan's rules run over both bindings in ``test_serve_contract.py``; the
interleaving-under-contention properties live in
``test_serve_stress.py`` / ``test_serve_fairness.py``."""

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (ConcurrencyError, ConfigError, SessionError,
                          TransactionStateError)
from repro.serve import ServeConfig, SessionExecutor
from repro.serve.group_commit import GroupCommitStats


def make_db(durability: bool = True, **kwargs) -> Database:
    db = Database(EngineConfig(durability=durability, **kwargs))
    db.create_table("t", [("k", "int"), ("v", "str")])
    db.create_index("ix", "t", ["k"], kind="mvpbt",
                    index_only_visibility=True)
    return db


class TestServeConfig:
    def test_defaults_validate(self):
        ServeConfig()

    @pytest.mark.parametrize("kwargs", [
        {"max_sessions": 0},
        {"scan_slice_rows": 0},
    ])
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            ServeConfig(**kwargs)


class TestSessionLifecycle:
    def test_begin_commit_roundtrip(self):
        db = make_db()
        with db.serve() as server:
            with server.session() as s:
                txid = s.begin()
                assert txid >= 1 and s.in_txn
                s.insert("t", (1, "a"))
                latency = s.commit()
                assert latency >= 0.0 and not s.in_txn
                assert s.commits == 1

    def test_nested_begin_raises(self):
        db = make_db()
        with db.serve() as server, server.session() as s:
            s.begin()
            with pytest.raises(SessionError, match="still open"):
                s.begin()

    def test_op_without_txn_raises(self):
        db = make_db()
        with db.serve() as server, server.session() as s:
            with pytest.raises(TransactionStateError, match="no open"):
                s.insert("t", (1, "a"))

    def test_closed_session_raises(self):
        db = make_db()
        with db.serve() as server:
            s = server.session()
            s.close()
            with pytest.raises(SessionError, match="closed"):
                s.begin()

    def test_close_aborts_open_txn(self):
        db = make_db()
        with db.serve() as server:
            with server.session() as s:
                s.begin()
                s.insert("t", (1, "a"))
            # context exit closed the session -> abort
            with server.session() as reader:
                reader.begin()
                assert reader.select("ix", (1,)) == []
        # the writer's implicit abort plus the reader's (its txn was
        # still open when its context closed)
        assert db.txn.aborted_count == 2

    def test_session_cap(self):
        db = make_db()
        with db.serve(ServeConfig(max_sessions=2)) as server:
            a, b = server.session(), server.session()
            with pytest.raises(SessionError, match="cap"):
                server.session()
            a.close()
            c = server.session()  # freed slot is reusable
            b.close()
            c.close()

    def test_server_close_is_idempotent_and_refuses_sessions(self):
        db = make_db()
        server = db.serve()
        server.close()
        server.close()
        with pytest.raises(SessionError, match="closed"):
            server.session()
        with pytest.raises(ConcurrencyError):
            server.scheduler.acquire("oltp")

    def test_run_commits_on_success_and_aborts_on_error(self):
        db = make_db()
        with db.serve() as server, server.session() as s:
            s.run(lambda sess: sess.insert("t", (1, "a")))
            with pytest.raises(ValueError):
                s.run(lambda sess: (_ for _ in ()).throw(ValueError("x")))
            s.begin()
            assert s.select("ix", (1,)) == [(1, "a")]
            s.abort()
        assert db.txn.committed_count == 1
        assert db.txn.aborted_count == 2  # run()'s abort + the explicit one


class TestServedEquivalence:
    """A served single session answers exactly like direct Database use."""

    def test_dml_and_reads_match_direct_use(self):
        direct = make_db()
        txn = direct.begin()
        for i in range(20):
            direct.insert(txn, "t", (i, f"v{i}"))
        direct.update_by_key(txn, "ix", (3,), {"v": "v3u"})
        direct.delete_by_key(txn, "ix", (7,))
        txn.commit()
        reader = direct.begin()
        want_all = direct.range_select(reader, "ix", None, None)
        want_point = direct.select(reader, "ix", (3,))
        reader.abort()

        served = make_db()
        with served.serve() as server, server.session() as s:
            s.begin()
            for i in range(20):
                s.insert("t", (i, f"v{i}"))
            s.update_by_key("ix", (3,), {"v": "v3u"})
            s.delete_by_key("ix", (7,))
            s.commit()
            s.begin()
            assert s.range_select("ix", None, None) == want_all
            assert s.select("ix", (3,)) == want_point
            assert s.select_hits("ix", (3,))[0].row == want_point[0]
            assert s.count_range("ix", None, None) == len(want_all)
            s.abort()

    def test_single_session_group_commit_appends_like_direct(self):
        """Group commit with one session = one append per commit, same as
        the direct hook path (byte-level equivalence is pinned by the obs
        golden-trace suite; this pins the append/fsync count)."""
        db = make_db()
        with db.serve() as server, server.session() as s:
            for i in range(3):
                s.begin()
                s.insert("t", (i, "x"))
                s.commit()
        assert db.durability.wal.appends == 3
        assert server.committer.stats.as_dict()["mean_group_size"] == 1.0


class TestGroupCommitDurability:
    def test_served_commits_survive_recovery(self):
        db = make_db()
        with db.serve() as server, server.session() as s:
            for i in range(5):
                s.begin()
                s.insert("t", (i, f"v{i}"))
                s.commit()
            s.begin()
            s.insert("t", (99, "lost"))   # never committed
            s.abort()
        recovered = Database.recover(db)
        txn = recovered.begin()
        got = recovered.range_select(txn, "ix", None, None)
        assert got == [(i, f"v{i}") for i in range(5)]
        txn.abort()

    def test_commits_that_wrote_nothing_never_join_a_group(self):
        """k reading sessions + one writer: the group covers the writer
        alone and costs one append; the readers alone cost none."""
        db = make_db()
        with db.serve() as server:
            with server.session() as s:
                s.begin()
                s.insert("t", (1, "a"))
                s.commit()
            wal, stats = db.durability.wal, server.committer.stats
            appends, groups = wal.appends, stats.groups
            sessions = [server.session() for _ in range(5)]
            for s in sessions:
                s.begin()
                assert s.select("ix", (1,)) == [(1, "a")]
            sessions[0].insert("t", (2, "b"))
            for s in sessions:
                s.commit()
            assert wal.appends == appends + 1
            assert (stats.groups, stats.commits) == (groups + 1, groups + 1)
            assert db.txn.committed_count == 6

            for s in sessions:
                s.begin()
                s.select("ix", (2,))
                s.commit()
            assert wal.appends == appends + 1
            assert stats.groups == groups + 1
            assert db.txn.committed_count == 11
            assert not db.txn.active_transactions

    def test_horizon_marker_commit_joins_the_group_queue(self):
        """A reading session whose txid is a multiple of HORIZON_STRIDE is
        the one read-only commit that queues: a group of one, one append."""
        from repro.durability.controller import HORIZON_STRIDE
        db = make_db()
        with db.serve() as server, server.session() as s:
            wal, stats = db.durability.wal, server.committer.stats
            for _ in range(HORIZON_STRIDE):
                before = (wal.appends, stats.commits)
                txid = s.begin()
                s.select("ix", (1,))
                s.commit()
                queued = int(txid % HORIZON_STRIDE == 0)
                assert (wal.appends, stats.commits) \
                    == (before[0] + queued, before[1] + queued)
            assert wal.commit_markers == 1

    @pytest.mark.parametrize("config", [
        None,
        ServeConfig(max_sessions=1),
    ])
    def test_durable_server_always_builds_a_committer(self, config):
        db = make_db()
        with db.serve(config) as server:
            assert server.committer is not None
            with server.session() as s:
                s.begin()
                s.insert("t", (1, "a"))
                s.commit()
            assert server.committer.stats.commits == 1
        assert db.durability.wal.appends == 1

    def test_no_durability_means_no_committer(self):
        db = make_db(durability=False)
        with db.serve() as server:
            assert server.committer is None
            with server.session() as s:
                s.begin()
                s.insert("t", (1, "a"))
                s.commit()
        assert db.txn.committed_count == 1


class TestSessionExecutor:
    def test_results_in_submission_order(self):
        db = make_db()
        with db.serve() as server:
            def client_for(i):
                def client(session):
                    session.begin()
                    session.insert("t", (i, f"c{i}"))
                    session.commit()
                    return i
                return client
            results = SessionExecutor(server, workers=4).run(
                [client_for(i) for i in range(12)])
            assert results == list(range(12))
            with server.session() as s:
                s.begin()
                assert s.count_range("ix", None, None) == 12
                s.abort()

    def test_first_error_propagates_after_join(self):
        db = make_db()
        with db.serve() as server:
            def good(session):
                session.begin()
                session.insert("t", (1000, "ok"))
                session.commit()
                return "ok"

            def bad(session):
                raise RuntimeError("client exploded")

            with pytest.raises(RuntimeError, match="exploded"):
                SessionExecutor(server, workers=2).run([good, bad, good])
            assert server.active_sessions == 0  # all sessions closed

    def test_zero_workers_rejected(self):
        db = make_db()
        with db.serve() as server:
            with pytest.raises(ConfigError):
                SessionExecutor(server, workers=0)


class TestServerStats:
    def test_stats_shape(self):
        db = make_db()
        with db.serve() as server, server.session() as s:
            s.begin()
            s.insert("t", (1, "a"))
            s.commit()
            stats = server.stats()
            assert stats["active_sessions"] == 1
            assert stats["scheduler"]["ticks"] > 0
            assert "oltp" in stats["scheduler"]["kinds"]
            assert stats["group_commit"]["commits"] == 1
            assert stats["wal_appends"] == 1

    def test_serve_metrics_exported(self):
        from repro.obs import ObsConfig
        db = Database(EngineConfig(durability=True,
                                   obs=ObsConfig(enabled=True)))
        db.create_table("t", [("k", "int"), ("v", "str")])
        db.create_index("ix", "t", ["k"], kind="mvpbt",
                        index_only_visibility=True)
        with db.serve(ServeConfig(scan_slice_rows=4)) as server:
            with server.session() as s:
                s.begin()
                for i in range(20):
                    s.insert("t", (i, "x"))
                s.commit()
                s.begin()
                list(s.batch_scan("ix", None, None))
                s.abort()
        metrics = db.obs.registry.export()
        assert metrics["counters"]["serve.sessions.opened"] == 1
        assert metrics["counters"]["serve.commit.groups"] == 1
        assert metrics["counters"]["serve.scan.slices"] >= 5
        assert metrics["histograms"]["serve.commit.latency_us"]["count"] == 1
        assert metrics["histograms"]["serve.commit.group_size"]["total"] == 1

    def test_group_size_is_recorded_once(self):
        """A group's size is one histogram, and the fsyncs it saved are
        derived from the commit and group counts."""
        from repro.obs import ObsConfig
        db = make_db(obs=ObsConfig(enabled=True))
        with db.serve() as server, server.session() as s:
            for i in range(3):
                s.begin()
                s.insert("t", (i, "x"))
                s.commit()
            stats = server.committer.stats
            assert (stats.commits, stats.groups, stats.fsyncs_saved) \
                == (3, 3, 0)
        histograms = db.obs.registry.export()["histograms"]
        assert histograms["serve.commit.group_size"]["count"] == 3
        assert "serve.commit.queue_depth" not in histograms

    def test_fsyncs_saved_is_commits_minus_groups(self):
        stats = GroupCommitStats()
        stats.commits, stats.groups, stats.max_group_size = 7, 3, 4
        assert stats.fsyncs_saved == 4
        assert stats.as_dict() == {
            "groups": 3, "commits": 7, "max_group_size": 4,
            "fsyncs_saved": 4, "mean_group_size": 7 / 3}
