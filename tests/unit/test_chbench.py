"""Unit tests for the CH-benchmark driver."""

import random

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import WorkloadError
from repro.workloads.chbench import CHBenchmark
from repro.workloads.tpcc import TPCCConfig


def make_ch(index_kind="mvpbt", **opts):
    db = Database(EngineConfig(buffer_pool_pages=256))
    cfg = TPCCConfig(warehouses=1, districts_per_warehouse=2,
                     customers_per_district=10, items=20,
                     initial_orders_per_district=10)
    ch = CHBenchmark(db, cfg, index_kind=index_kind, index_options=opts)
    ch.load()
    return db, ch


class TestQueries:
    def test_q1_groups_by_line_number(self):
        db, ch = make_ch()
        t = db.begin()
        rows = ch.query_q1(t)
        t.commit()
        assert rows
        numbers = [r[0] for r in rows]
        assert numbers == sorted(numbers)
        assert all(count >= 1 for _n, _q, _a, count in rows)

    def test_q1_totals_match_order_line_count(self):
        db, ch = make_ch()
        t = db.begin()
        rows = ch.query_q1(t)
        total = sum(int(r[3]) for r in rows)
        assert total == len(db.seq_scan(t, "order_line"))
        t.commit()

    def test_q6_revenue_filter(self):
        db, ch = make_ch()
        t = db.begin()
        revenue = ch.query_q6(t)
        all_lines = db.seq_scan(t, "order_line")
        expected = sum(line[7] for line in all_lines if 1 <= line[6] <= 7)
        assert revenue == pytest.approx(expected)
        t.commit()

    def test_low_stock_counts(self):
        db, ch = make_ch()
        t = db.begin()
        low = ch.query_low_stock(t, threshold=101)
        assert low == len(db.seq_scan(t, "stock"))   # everything below 101
        t.commit()

    def test_run_query_dispatch(self):
        db, ch = make_ch()
        t = db.begin()
        for name in ch.QUERIES:
            assert ch.run_query(t, name) >= 0
        with pytest.raises(WorkloadError):
            ch.run_query(t, "q99")
        t.commit()


class TestMixedRun:
    def test_mixed_run_produces_both_kinds(self):
        _db, ch = make_ch()
        result = ch.run_mixed(rounds=2, oltp_slice=20)
        assert result.oltp_committed > 0
        assert result.olap_queries == 2 * len(ch.QUERIES)
        assert result.oltp_tpm > 0
        assert result.olap_qpm > 0

    def test_queries_see_pre_slice_snapshot(self):
        """The analytical snapshot opens before the OLTP slice: its Q1 totals
        must match the data as of the snapshot, not the post-slice state."""
        db, ch = make_ch()
        t0 = db.begin()
        baseline = sum(int(r[3]) for r in ch.query_q1(t0))
        t0.commit()
        olap = db.begin()
        ch.tpcc.run(30)   # creates new orders/lines
        stale_total = sum(int(r[3]) for r in ch.query_q1(olap))
        olap.commit()
        fresh = db.begin()
        fresh_total = sum(int(r[3]) for r in ch.query_q1(fresh))
        fresh.commit()
        assert stale_total == baseline
        assert fresh_total >= baseline

    def test_paused_query_scan_time_grows_with_pause(self):
        _db, ch = make_ch(index_kind="pbt")
        short, _rows = ch.run_paused_query(pause_slices=1, oltp_per_slice=10)
        _db2, ch2 = make_ch(index_kind="pbt")
        long, _rows2 = ch2.run_paused_query(pause_slices=6, oltp_per_slice=10)
        assert long > short


class TestExtendedQueries:
    def test_q4_counts_fully_delivered_orders(self):
        db, ch = make_ch()
        t = db.begin()
        count = ch.query_q4(t)
        # loaded orders with carriers have delivery stamps on all lines
        orders = db.seq_scan(t, "orders")
        delivered = [o for o in orders if o[4] != 0]
        assert count == len(delivered)
        t.commit()

    def test_top_customers_sorted_by_balance(self):
        db, ch = make_ch()
        t = db.begin()
        top = ch.query_top_customers(t, n=5)
        balances = [r[3] for r in top]
        assert balances == sorted(balances, reverse=True)
        assert len(top) == 5
        t.commit()

    def test_district_revenue_covers_all_districts(self):
        db, ch = make_ch()
        t = db.begin()
        revenue = ch.query_revenue_by_district(t)
        cfg = ch.tpcc.config
        assert len(revenue) == cfg.warehouses * cfg.districts_per_warehouse
        total = sum(revenue.values())
        lines = db.seq_scan(t, "order_line")
        assert total == pytest.approx(sum(line[7] for line in lines))
        t.commit()

    def test_all_registered_queries_run(self):
        db, ch = make_ch()
        t = db.begin()
        for name in ch.QUERIES:
            assert ch.run_query(t, name) >= 0, name
        t.commit()


class TestArrivalOrder:
    def test_answers_do_not_depend_on_row_order(self, monkeypatch):
        """A served gather hands each query its rows in no particular
        order: fed a seeded permutation of every read's rows, every
        query answers exactly as it does in key order — float sums
        included, and ties in balance broken by key."""
        db, ch = make_ch()
        ch.tpcc.run(40)     # balances and amounts that tie and that don't
        queries = (ch.query_q1, ch.query_q6, ch.query_orders_by_carrier,
                   ch.query_low_stock, ch.query_q4,
                   ch.query_top_customers, ch.query_revenue_by_district)

        def answers():
            t = db.begin()
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
