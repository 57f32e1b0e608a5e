"""Unit tests for the CH-benchmark driver."""

import random

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import DeviceCrashError, WorkloadError
from repro.shard import ShardConfig, ShardedDatabase
from repro.workloads import shard_served_backend
from repro.workloads.chbench import CHBenchmark
from repro.workloads.tpcc import TPCCConfig

SMALL = TPCCConfig(warehouses=1, districts_per_warehouse=2,
                   customers_per_district=10, items=20,
                   initial_orders_per_district=10)


def make_ch(index_kind="mvpbt", **opts):
    db = Database(EngineConfig(buffer_pool_pages=256))
    ch = CHBenchmark(db, SMALL, index_kind=index_kind, index_options=opts)
    ch.load()
    return ch


class TestQueries:
    def test_q1_groups_by_line_number(self):
        ch = make_ch()
        t = ch.backend.begin()
        rows = ch.query_q1(t)
        t.commit()
        assert rows
        numbers = [r[0] for r in rows]
        assert numbers == sorted(numbers)
        assert all(count >= 1 for _n, _q, _a, count in rows)

    def test_q1_totals_match_order_line_count(self):
        ch = make_ch()
        t = ch.backend.begin()
        rows = ch.query_q1(t)
        t.commit()
        total = sum(int(r[3]) for r in rows)
        assert total == len(ch.backend.dump_table("order_line"))

    def test_q6_revenue_filter(self):
        ch = make_ch()
        t = ch.backend.begin()
        revenue = ch.query_q6(t)
        t.commit()
        all_lines = ch.backend.dump_table("order_line")
        expected = sum(line[7] for line in all_lines if 1 <= line[6] <= 7)
        assert revenue == pytest.approx(expected)

    def test_low_stock_counts(self):
        ch = make_ch()
        t = ch.backend.begin()
        low = ch.query_low_stock(t, threshold=101)
        t.commit()
        # everything is below 101
        assert low == len(ch.backend.dump_table("stock"))

    def test_run_query_dispatch(self):
        ch = make_ch()
        t = ch.backend.begin()
        for name in ch.QUERIES:
            assert ch.run_query(t, name) >= 0
        with pytest.raises(WorkloadError):
            ch.run_query(t, "q99")
        t.commit()


class TestMixedRun:
    def test_mixed_run_produces_both_kinds(self):
        ch = make_ch()
        result = ch.run_mixed(rounds=2, oltp_slice=20)
        assert result.oltp_committed > 0
        assert result.olap_queries == 2 * len(ch.QUERIES)
        assert result.oltp_tpm > 0
        assert result.olap_qpm > 0

    def test_queries_see_pre_slice_snapshot(self):
        """The analytical snapshot opens before the OLTP slice: its Q1 totals
        must match the data as of the snapshot, not the post-slice state."""
        ch = make_ch()
        t0 = ch.backend.begin()
        baseline = sum(int(r[3]) for r in ch.query_q1(t0))
        t0.commit()
        olap = ch.backend.begin()
        ch.tpcc.run(30)   # creates new orders/lines
        stale_total = sum(int(r[3]) for r in ch.query_q1(olap))
        olap.commit()
        fresh = ch.backend.begin()
        fresh_total = sum(int(r[3]) for r in ch.query_q1(fresh))
        fresh.commit()
        assert stale_total == baseline
        assert fresh_total >= baseline

    def test_paused_query_scan_time_grows_with_pause(self):
        ch = make_ch(index_kind="pbt")
        short, _rows = ch.run_paused_query(pause_slices=1, oltp_per_slice=10)
        ch2 = make_ch(index_kind="pbt")
        long, _rows2 = ch2.run_paused_query(pause_slices=6, oltp_per_slice=10)
        assert long > short


class TestAbortOnRaise:
    """A round that raises aborts its held analytical transaction, so
    its snapshot does not pin the GC cutoff for the rest of the run."""

    @staticmethod
    def break_q6(monkeypatch):
        def broken(self, txn):
            raise WorkloadError("injected query failure")
        monkeypatch.setattr(CHBenchmark, "query_q6", broken)

    def test_mixed_run_aborts_its_analytic_txn(self, monkeypatch):
        ch = make_ch()
        db = ch.backend.db
        self.break_q6(monkeypatch)
        with pytest.raises(WorkloadError, match="injected"):
            ch.run_mixed(rounds=2, oltp_slice=5)
        assert db.txn.active_transactions == []
        # a later snapshot's horizon is its own txid, not the leaked one
        t = db.begin()
        assert t.snapshot.xmin == t.id
        t.commit()

    def test_paused_query_aborts_its_analytic_txn(self, monkeypatch):
        ch = make_ch()
        db = ch.backend.db
        self.break_q6(monkeypatch)
        with pytest.raises(WorkloadError, match="injected"):
            ch.run_paused_query(pause_slices=1, oltp_per_slice=5,
                                query="q6")
        assert db.txn.active_transactions == []
        t = db.begin()
        assert t.snapshot.xmin == t.id
        t.commit()

    def test_a_raising_oltp_slice_aborts_the_analytic_txn(self,
                                                          monkeypatch):
        ch = make_ch()
        db = ch.backend.db

        def broken(n):
            raise WorkloadError("injected slice failure")
        monkeypatch.setattr(ch.tpcc, "run", broken)
        with pytest.raises(WorkloadError, match="injected"):
            ch.run_mixed(rounds=1, oltp_slice=5)
        assert db.txn.active_transactions == []

    def test_a_served_round_frees_its_pooled_session(self, monkeypatch):
        """On a served backend the leaked transaction would keep its
        pooled session ``in_txn``: the pool would open a fresh one."""
        router = ShardedDatabase(EngineConfig(buffer_pool_pages=256),
                                 ShardConfig(shards=1))
        with shard_served_backend(router) as backend:
            ch = CHBenchmark(backend, SMALL)
            ch.load()
            self.break_q6(monkeypatch)
            with pytest.raises(WorkloadError, match="injected"):
                ch.run_mixed(rounds=1, oltp_slice=5)
            opened = backend.server.active_sessions
            first, second = backend.begin(), backend.begin()
            assert backend.server.active_sessions == opened
            first.commit()
            second.commit()
            assert all(db.txn.active_transactions == []
                       for db in router.shards)

    def test_a_device_crash_is_left_to_the_crash_harness(self,
                                                         monkeypatch):
        """A dead device can run no abort: the open transaction is the
        crash harness's to recover, as in ``TPCCRunner.run``."""
        ch = make_ch()
        db = ch.backend.db

        def crashed(self, txn):
            raise DeviceCrashError("injected crash")
        monkeypatch.setattr(CHBenchmark, "query_q6", crashed)
        with pytest.raises(DeviceCrashError, match="injected"):
            ch.run_mixed(rounds=1, oltp_slice=5)
        assert len(db.txn.active_transactions) == 1


class TestExtendedQueries:
    def test_q4_counts_fully_delivered_orders(self):
        ch = make_ch()
        t = ch.backend.begin()
        count = ch.query_q4(t)
        t.commit()
        # loaded orders with carriers have delivery stamps on all lines
        orders = ch.backend.dump_table("orders")
        delivered = [o for o in orders if o[4] != 0]
        assert count == len(delivered)

    def test_top_customers_sorted_by_balance(self):
        ch = make_ch()
        t = ch.backend.begin()
        top = ch.query_top_customers(t, n=5)
        balances = [r[3] for r in top]
        assert balances == sorted(balances, reverse=True)
        assert len(top) == 5
        t.commit()

    def test_district_revenue_covers_all_districts(self):
        ch = make_ch()
        t = ch.backend.begin()
        revenue = ch.query_revenue_by_district(t)
        t.commit()
        cfg = ch.tpcc.config
        assert len(revenue) == cfg.warehouses * cfg.districts_per_warehouse
        total = sum(revenue.values())
        lines = ch.backend.dump_table("order_line")
        assert total == pytest.approx(sum(line[7] for line in lines))

    def test_all_registered_queries_run(self):
        ch = make_ch()
        t = ch.backend.begin()
        for name in ch.QUERIES:
            assert ch.run_query(t, name) >= 0, name
        t.commit()


class TestArrivalOrder:
    def test_answers_do_not_depend_on_row_order(self, monkeypatch):
        """A served gather hands each query its rows in no particular
        order: fed a seeded permutation of every read's rows, every
        query answers exactly as it does in key order — float sums
        included, and ties in balance broken by key."""
        ch = make_ch()
        ch.tpcc.run(40)     # balances and amounts that tie and that don't
        queries = (ch.query_q1, ch.query_q6, ch.query_orders_by_carrier,
                   ch.query_low_stock, ch.query_q4,
                   ch.query_top_customers, ch.query_revenue_by_district)

        def answers():
            t = ch.backend.begin()
            out = [query(t) for query in queries]
            t.commit()
            return out

        in_key_order = answers()
        read = CHBenchmark._range
        for seed in range(5):
            rng = random.Random(seed)

            def shuffled(self, txn, index, lo, hi):
                rows = read(self, txn, index, lo, hi)
                rng.shuffle(rows)
                return rows

            monkeypatch.setattr(CHBenchmark, "_range", shuffled)
            assert answers() == in_key_order, seed
