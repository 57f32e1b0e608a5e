"""Integration: TPC-C runs correctly on every base-table design."""

import pytest

from repro.config import EngineConfig
from repro.engine import Database
from repro.index.base import TOP
from repro.workloads.tpcc import TPCCConfig, TPCCRunner


def small_tpcc():
    return TPCCConfig(warehouses=1, districts_per_warehouse=2,
                      customers_per_district=10, items=20,
                      initial_orders_per_district=8, seed=9)


class TestTPCCStorageMatrix:
    @pytest.mark.parametrize("storage", ["heap", "sias", "delta"])
    @pytest.mark.parametrize("kind", ["btree", "mvpbt"])
    def test_runs_and_stays_consistent(self, storage, kind):
        db = Database(EngineConfig(buffer_pool_pages=256))
        runner = TPCCRunner(db, small_tpcc(), index_kind=kind,
                            storage=storage)
        runner.load()
        result = runner.run(120)
        assert result.committed > 100, (storage, kind)
        # order-lines-per-order invariant
        t = db.begin()
        for order in db.seq_scan(t, "orders")[:20]:
            w, d, o_id, _c, _carrier, ol_cnt = order[:6]
            lines = db.range_select(t, "idx_order_line", (w, d, o_id),
                                    (w, d, o_id, TOP))
            assert len(lines) == ol_cnt, (storage, kind, o_id)
        t.commit()
