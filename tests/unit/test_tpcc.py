"""Unit tests for the TPC-C workload."""

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.errors import WorkloadError
from repro.index.base import TOP
from repro.workloads.backend import as_backend
from repro.workloads.invariants import assert_tpcc_consistent
from repro.workloads.tpcc import (TPCCConfig, TPCCRunner, customer_last_name)


def small_config(**kw):
    defaults = dict(warehouses=1, districts_per_warehouse=2,
                    customers_per_district=10, items=20,
                    initial_orders_per_district=10)
    defaults.update(kw)
    return TPCCConfig(**defaults)


@pytest.fixture(scope="module")
def loaded():
    db = Database(EngineConfig(buffer_pool_pages=256))
    runner = TPCCRunner(db, small_config(), index_kind="mvpbt")
    runner.load()
    return db, runner


class TestNames:
    def test_last_name_syllables(self):
        assert customer_last_name(0) == "BARBARBAR"
        assert customer_last_name(999) == "EINGEINGEING"
        assert customer_last_name(371) == "PRICALLYOUGHT"


class TestConfig:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            TPCCConfig(new_order_weight=0.9)

    def test_run_requires_load(self):
        db = Database(EngineConfig(buffer_pool_pages=64))
        runner = TPCCRunner(db, small_config())
        with pytest.raises(WorkloadError):
            runner.run(1)


class TestLoad:
    def test_cardinalities(self, loaded):
        db, runner = loaded
        cfg = runner.config
        t = db.begin()
        assert len(db.seq_scan(t, "warehouse")) == cfg.warehouses
        assert len(db.seq_scan(t, "district")) == (
            cfg.warehouses * cfg.districts_per_warehouse)
        assert len(db.seq_scan(t, "customer")) == (
            cfg.warehouses * cfg.districts_per_warehouse
            * cfg.customers_per_district)
        assert len(db.seq_scan(t, "item")) == cfg.items
        assert len(db.seq_scan(t, "stock")) == cfg.warehouses * cfg.items
        t.commit()

    def test_orders_have_lines(self, loaded):
        db, runner = loaded
        t = db.begin()
        orders = db.range_select(t, "idx_orders", (1, 1), (1, 1, TOP))
        assert len(orders) == runner.config.initial_orders_per_district
        o = orders[0]
        lines = db.range_select(t, "idx_order_line", (1, 1, o[2]),
                                (1, 1, o[2], TOP))
        assert len(lines) == o[5]   # o_ol_cnt
        t.commit()


class TestRun:
    def test_transactions_commit(self):
        db = Database(EngineConfig(buffer_pool_pages=256))
        runner = TPCCRunner(db, small_config(seed=3), index_kind="mvpbt")
        runner.load()
        result = runner.run(120)
        assert result.committed > 100
        assert result.tpm > 0
        assert set(result.by_type) <= {"new_order", "payment",
                                       "order_status", "delivery",
                                       "stock_level"}
        assert result.by_type.get("new_order", 0) > 0
        assert result.by_type.get("payment", 0) > 0

    def test_new_order_advances_district_counter(self):
        db = Database(EngineConfig(buffer_pool_pages=256))
        cfg = small_config(new_order_weight=1.0, payment_weight=0.0,
                           order_status_weight=0.0, delivery_weight=0.0,
                           stock_level_weight=0.0)
        runner = TPCCRunner(db, cfg, index_kind="mvpbt")
        runner.load()
        result = runner.run(20)
        t = db.begin()
        districts = db.seq_scan(t, "district")
        total_next = sum(d[4] for d in districts)
        base = (cfg.initial_orders_per_district + 1) * len(districts)
        committed_orders = result.by_type.get("new_order", 0)
        # aborted NewOrders roll their district counter back
        assert total_next == base + committed_orders
        t.commit()

    def test_payment_updates_ytd_consistently(self):
        db = Database(EngineConfig(buffer_pool_pages=256))
        cfg = small_config(new_order_weight=0.0, payment_weight=1.0,
                           order_status_weight=0.0, delivery_weight=0.0,
                           stock_level_weight=0.0)
        runner = TPCCRunner(db, cfg, index_kind="mvpbt")
        runner.load()
        runner.run(30)
        t = db.begin()
        w_ytd = sum(w[2] for w in db.seq_scan(t, "warehouse"))
        d_ytd = sum(d[3] for d in db.seq_scan(t, "district"))
        h_sum = sum(h[3] for h in db.seq_scan(t, "history"))
        wh_base = 300000.0 * cfg.warehouses
        d_base = 30000.0 * cfg.warehouses * cfg.districts_per_warehouse
        assert w_ytd - wh_base == pytest.approx(h_sum)
        assert d_ytd - d_base == pytest.approx(h_sum)
        t.commit()

    def test_delivery_clears_new_orders(self):
        db = Database(EngineConfig(buffer_pool_pages=256))
        cfg = small_config(new_order_weight=0.0, payment_weight=0.0,
                           order_status_weight=0.0, delivery_weight=1.0,
                           stock_level_weight=0.0,
                           initial_orders_per_district=6)
        runner = TPCCRunner(db, cfg, index_kind="mvpbt")
        runner.load()
        t = db.begin()
        before = len(db.seq_scan(t, "new_order"))
        t.commit()
        assert before > 0
        runner.run(before * cfg.districts_per_warehouse + 10)
        t2 = db.begin()
        after = len(db.seq_scan(t2, "new_order"))
        t2.commit()
        assert after == 0

    def test_runs_on_every_index_kind(self):
        for kind in ("btree", "pbt", "mvpbt"):
            db = Database(EngineConfig(buffer_pool_pages=256))
            runner = TPCCRunner(db, small_config(), index_kind=kind)
            runner.load()
            result = runner.run(60)
            assert result.committed > 40, kind


class TestVacuumUnderRollbacks:
    @pytest.mark.parametrize("storage, kind", [
        ("sias", "mvpbt"), ("heap", "btree"), ("delta", "btree")])
    def test_consistency_holds_with_vacuum_on(self, storage, kind):
        """TPC-C rolls 1 % of new-orders back; with vacuum running every
        25 commits the run must stay C1-C4 consistent (it failed C4, or
        raised PageNotFoundError, while vacuum freed pages that aborted
        chain heads still named)."""
        # 2 KiB pages: a rolled-back new-order fills whole pages, which
        # is what makes them freeable
        db = Database(EngineConfig(buffer_pool_pages=256, page_size=2048))
        runner = TPCCRunner(db, small_config(vacuum_every=25, seed=7),
                            index_kind=kind, storage=storage)
        runner.load()
        result = runner.run(600)
        assert result.aborted > 0, "the run must include rollbacks"
        assert result.committed > 500
        assert_tpcc_consistent(as_backend(db), context="vacuum on")
