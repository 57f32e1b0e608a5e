"""CH-benchmark: mixed HTAP workload (paper §5, Figure 12).

The CH-benCHmark [Cole et al., DBTest'11] runs TPC-C transactions and
TPC-H-style analytical queries *on the same schema and data*.  We implement
the TPC-C side via :class:`~repro.workloads.tpcc.TPCCRunner` and a
representative subset of the analytical queries — the scan-heavy ones that
create the long-snapshot pressure the paper measures:

* **Q1-like**: aggregate ``order_line`` by line number (sum qty / amount);
* **Q6-like**: revenue sum over ``order_line`` with quantity filter;
* **order-count-by-carrier** over ``orders``;
* **low-stock count** over ``stock``.

The mixed-run driver interleaves OLTP slices with analytical queries whose
snapshots are opened *before* the slice (the paper's ``pg_sleep`` device):
every update in between creates transient versions the query's visibility
checks must wade through — index-only for MV-PBT, via base-table random
reads otherwise.

Like the TPC-C runner, the benchmark drives any
:class:`~repro.workloads.backend.WorkloadBackend` target (§18).  On a
served backend the analytical range reads flow through the session's
unordered gather — each shard's leg fetched on its own shard on a
:class:`~repro.serve.shard_server.ShardServer` — so rows arrive in no
particular order: every query sums with ``math.fsum`` and breaks sort
ties by key, so its answer does not depend on the order.  Query methods
also still accept a raw engine
:class:`~repro.txn.transaction.Transaction` when the benchmark wraps a
bare :class:`~repro.engine.Database`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from ..engine.database import Database
from ..errors import WorkloadError
from ..index.base import TOP
from ..txn.transaction import Transaction
from ..types import Key, Row
from .backend import BackendTarget, WorkloadTxn, as_backend
from .tpcc import TPCCConfig, TPCCRunner

#: a query can run under a backend transaction or a raw engine one
QueryTxn = Union[WorkloadTxn, Transaction]


@dataclass
class CHResult:
    """Outcome of one mixed run."""

    oltp_committed: int = 0
    oltp_aborted: int = 0
    olap_queries: int = 0
    elapsed_sim_seconds: float = 0.0
    olap_scan_seconds: float = 0.0      #: sim time spent inside queries
    query_rows: int = 0

    @property
    def oltp_tpm(self) -> float:
        if self.elapsed_sim_seconds <= 0:
            return 0.0
        return self.oltp_committed * 60.0 / self.elapsed_sim_seconds

    @property
    def olap_qpm(self) -> float:
        if self.elapsed_sim_seconds <= 0:
            return 0.0
        return self.olap_queries * 60.0 / self.elapsed_sim_seconds


class CHBenchmark:
    """TPC-C + analytical queries on one backend."""

    def __init__(self, db: Union[Database, BackendTarget],
                 config: TPCCConfig | None = None, *,
                 index_kind: str = "mvpbt",
                 reference: str = "physical",
                 storage: str = "sias",
                 index_options: dict[str, object] | None = None) -> None:
        self.backend = as_backend(db)
        #: the raw database when constructed from one (legacy query path)
        self.db: Database | None = db if isinstance(db, Database) else None
        self.tpcc = TPCCRunner(self.backend, config,
                               index_kind=index_kind,
                               reference=reference, storage=storage,
                               index_options=index_options)

    def load(self) -> None:
        self.tpcc.load()

    # ---------------------------------------------------------- query plumbing

    def _range(self, txn: QueryTxn, index: str, lo: Key | None,
               hi: Key | None) -> list[Row]:
        """Analytical range read under either transaction flavour."""
        if isinstance(txn, WorkloadTxn):
            return txn.analytic_rows(index, lo, hi)
        if self.db is None:
            raise WorkloadError(
                "raw-Transaction queries need a Database-backed benchmark")
        return self.db.range_select(txn, index, lo, hi)

    # ------------------------------------------------------------- queries

    def query_q1(self, txn: QueryTxn) -> list[Key]:
        """Q1-like: per-line-number sums over all order lines."""
        rows = self._range(txn, "idx_order_line", None, None)
        groups: dict[int, list[Row]] = {}
        for row in rows:
            groups.setdefault(row[3], []).append(row)
        return [(number, math.fsum(row[6] for row in lines),
                 math.fsum(row[7] for row in lines), len(lines))
                for number, lines in sorted(groups.items())]

    def query_q6(self, txn: QueryTxn) -> float:
        """Q6-like: revenue of order lines with quantity in [1, 7]."""
        rows = self._range(txn, "idx_order_line", None, None)
        return math.fsum(row[7] for row in rows if 1 <= row[6] <= 7)

    def query_orders_by_carrier(self, txn: QueryTxn) -> dict[int, int]:
        rows = self._range(txn, "idx_orders", None, None)
        counts: dict[int, int] = {}
        for row in rows:
            counts[row[4]] = counts.get(row[4], 0) + 1
        return counts

    def query_low_stock(self, txn: QueryTxn, threshold: int = 15) -> int:
        cfg = self.tpcc.config
        low = 0
        for w in range(1, cfg.warehouses + 1):
            rows = self._range(txn, "idx_stock", (w,), (w, TOP))
            low += sum(1 for row in rows if row[2] < threshold)
        return low

    def query_q4(self, txn: QueryTxn) -> int:
        """Q4-like: orders whose every line was delivered on time
        (here: orders with an assigned carrier and all lines delivered)."""
        count = 0
        for order in self._range(txn, "idx_orders", None, None):
            if order[4] == 0:
                continue
            w, d, o_id = order[0], order[1], order[2]
            lines = self._range(txn, "idx_order_line",
                                (w, d, o_id), (w, d, o_id, TOP))
            if lines and all(line[8] > 0 for line in lines):
                count += 1
        return count

    def query_top_customers(self, txn: QueryTxn, n: int = 10) -> list[Key]:
        """Q18-like: the n customers with the highest balance."""
        rows = self._range(txn, "idx_customer", None, None)
        rows.sort(key=lambda r: (-r[5], r[0], r[1], r[2]))
        return [(r[0], r[1], r[2], r[5]) for r in rows[:n]]

    def query_revenue_by_district(self, txn: QueryTxn) -> dict[Key, float]:
        """Q12-like: order-line revenue grouped by (warehouse, district)."""
        amounts: dict[Key, list[float]] = {}
        for row in self._range(txn, "idx_order_line", None, None):
            amounts.setdefault((row[0], row[1]), []).append(row[7])
        return {key: math.fsum(lines) for key, lines in amounts.items()}

    QUERIES = ("q1", "q6", "carrier", "low_stock", "q4", "top_customers",
               "district_revenue")

    def run_query(self, txn: QueryTxn, name: str) -> int:
        """Execute one query; returns the result cardinality."""
        if name == "q1":
            return len(self.query_q1(txn))
        if name == "q6":
            self.query_q6(txn)
            return 1
        if name == "carrier":
            return len(self.query_orders_by_carrier(txn))
        if name == "low_stock":
            return self.query_low_stock(txn)
        if name == "q4":
            return self.query_q4(txn)
        if name == "top_customers":
            return len(self.query_top_customers(txn))
        if name == "district_revenue":
            return len(self.query_revenue_by_district(txn))
        raise WorkloadError(f"unknown CH query {name!r}")

    # ------------------------------------------------------------ mixed run

    def run_mixed(self, *, rounds: int = 4,
                  oltp_slice: int = 50,
                  queries_per_round: int | None = None) -> CHResult:
        """Interleave OLTP slices with snapshot-held analytical queries.

        Each round: open an analytical transaction (pinning its snapshot),
        run ``oltp_slice`` TPC-C transactions (creating transient versions
        the open snapshot keeps alive), then execute the round's analytical
        queries under the *old* snapshot and commit it.

        On a served backend the analytical transaction occupies its own
        pooled session while the OLTP slice churns through others.
        """
        result = CHResult()
        start = self.backend.sim_now
        names = list(self.QUERIES)
        if queries_per_round is not None:
            names = names[:queries_per_round]
        for round_no in range(rounds):
            olap_txn = self.backend.begin()
            slice_result = self.tpcc.run(oltp_slice)
            result.oltp_committed += slice_result.committed
            result.oltp_aborted += slice_result.aborted
            q_start = self.backend.sim_now
            for name in names:
                result.query_rows += self.run_query(olap_txn, name)
                result.olap_queries += 1
            result.olap_scan_seconds += self.backend.sim_now - q_start
            olap_txn.commit()
        result.elapsed_sim_seconds = self.backend.sim_now - start
        return result

    def run_paused_query(self, *, pause_slices: int,
                         oltp_per_slice: int = 25,
                         query: str = "q1") -> tuple[float, int]:
        """The paper's Figure 12b device: open a query snapshot, "sleep"
        while OLTP churns (``pause_slices`` x ``oltp_per_slice``
        transactions), then run the query under the stale snapshot.

        Returns (query sim-seconds, result cardinality).
        """
        olap_txn = self.backend.begin()
        for _ in range(pause_slices):
            self.tpcc.run(oltp_per_slice)
        q_start = self.backend.sim_now
        rows = self.run_query(olap_txn, query)
        elapsed = self.backend.sim_now - q_start
        olap_txn.commit()
        return elapsed, rows
