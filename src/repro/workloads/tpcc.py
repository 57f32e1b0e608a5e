"""TPC-C-like OLTP benchmark (DBT-2 style; paper §5, Figure 14).

The full nine-table TPC-C schema and all five transaction profiles
(NewOrder 45% / Payment 43% / OrderStatus 4% / Delivery 4% / StockLevel 4%)
run against any :class:`~repro.workloads.backend.WorkloadBackend` target —
a bare :class:`~repro.engine.Database` or a served sharded cluster
(§18) — with the index kind / reference mode under test
applied to every index.

Every table is sharded by its warehouse column, so a transaction pinned
to one warehouse is a single-shard fast-path commit, while a new-order
with a *remote* order line (``remote_order_line_prob``) updates stock on
a different warehouse's shard and commits through genuine 2PC.

Timestamps written into rows (``o_entry_d``, ``h_date``,
``ol_delivery_d``) are drawn from a runner-local logical counter, NOT the
simulated clock: backends advance their clocks differently (sharding,
2PC), and the differential oracle requires committed row data to
be byte-identical across all of them.

Scale is configurable: defaults shrink customers-per-district and the item
catalogue so the workload fits a CPython simulation, while the buffer pool
used by the benchmarks is shrunk proportionally so the buffer:data ratio of
the paper's setup (2 GB RAM vs. tens of GB) is preserved.
Throughput is committed transactions per simulated minute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from ..errors import DeviceCrashError, ReproError, WorkloadError
from ..index.base import TOP
from ..types import Row
from .backend import (BackendTarget, WorkloadBackend, WorkloadTxn,
                      as_backend)

LAST_NAMES = ["BAR", "OUGHT", "ABLE", "PRI", "PRES",
              "ESE", "ANTI", "CALLY", "ATION", "EING"]

#: load order — parents before children so bulk chunks stay meaningful
TABLES = ("item", "warehouse", "stock", "district", "customer",
          "orders", "new_order", "order_line", "history")

#: shard-key column per table (the warehouse column; items by item id)
SHARD_KEYS: dict[str, list[str]] = {
    "warehouse": ["w_id"], "district": ["d_w_id"],
    "customer": ["c_w_id"], "item": ["i_id"], "stock": ["s_w_id"],
    "orders": ["o_w_id"], "new_order": ["no_w_id"],
    "order_line": ["ol_w_id"], "history": ["h_c_w_id"],
}


def customer_last_name(num: int) -> str:
    """TPC-C last-name generator (three syllables from the digit table)."""
    return (LAST_NAMES[(num // 100) % 10] + LAST_NAMES[(num // 10) % 10]
            + LAST_NAMES[num % 10])


@dataclass(frozen=True)
class TPCCConfig:
    """Scale and mix parameters."""

    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 30      #: TPC-C: 3000 (scaled down)
    items: int = 100                      #: TPC-C: 100000 (scaled down)
    initial_orders_per_district: int = 30
    #: transaction mix (must sum to 1)
    new_order_weight: float = 0.45
    payment_weight: float = 0.43
    order_status_weight: float = 0.04
    delivery_weight: float = 0.04
    stock_level_weight: float = 0.04
    seed: int = 7
    #: run db.vacuum on all tables every N committed transactions
    #: (PostgreSQL's autovacuum / opportunistic HOT pruning); 0 disables
    vacuum_every: int = 0
    #: fixed per-transaction engine overhead (logging, CC, planning) charged
    #: to the simulated clock — the paper notes index operations "only have
    #: a fair share of the whole database operations" under TPC-C
    overhead_per_txn: float = 0.0
    #: probability an order line is supplied by a remote warehouse
    #: (TPC-C: 1%); on a sharded backend a remote line makes the
    #: new-order a cross-shard 2PC transaction — crash tests set 1.0
    remote_order_line_prob: float = 0.01

    def __post_init__(self) -> None:
        total = (self.new_order_weight + self.payment_weight
                 + self.order_status_weight + self.delivery_weight
                 + self.stock_level_weight)
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mix weights sum to {total}")


@dataclass
class TPCCResult:
    """Outcome of one run."""

    committed: int = 0
    aborted: int = 0
    elapsed_sim_seconds: float = 0.0
    by_type: dict[str, int] = field(default_factory=dict)

    @property
    def tpm(self) -> float:
        """Committed transactions per simulated minute."""
        if self.elapsed_sim_seconds <= 0:
            return 0.0
        return self.committed * 60.0 / self.elapsed_sim_seconds


class TPCCRunner:
    """Loads the schema and executes the transaction mix.

    Pass ``record_ops=True`` to capture one line per attempted
    transaction in :attr:`op_log` (kind + the data-dependent keys it
    chose) — the determinism suite compares these logs byte-for-byte
    across backends.
    """

    def __init__(self, db: BackendTarget,
                 config: TPCCConfig | None = None, *,
                 index_kind: str = "mvpbt",
                 reference: str = "physical",
                 storage: str = "sias",
                 index_options: dict[str, object] | None = None,
                 record_ops: bool = False) -> None:
        self.backend: WorkloadBackend = as_backend(db)
        self.config = config if config is not None else TPCCConfig()
        self.index_kind = index_kind
        self.reference = reference
        self.storage = storage
        self.index_options = dict(index_options or {})
        self._rng = random.Random(self.config.seed)
        self._next_o_id: dict[tuple[int, int], int] = {}
        self._loaded = False
        self._record_ops = record_ops
        #: one line per attempted transaction (only when ``record_ops``)
        self.op_log: list[str] = []
        # logical timestamp source for row data (backend-independent)
        self._stamp_counter = 0.0

    def _stamp(self) -> float:
        """Next logical timestamp (monotone, > 0, backend-independent)."""
        self._stamp_counter += 1.0
        return self._stamp_counter

    def _note(self, op: str) -> None:
        if self._record_ops:
            self.op_log.append(op)

    # ---------------------------------------------------------------- schema

    def create_schema(self) -> None:
        be, st = self.backend, self.storage

        def table(name: str, columns: list[tuple[str, str]]) -> None:
            be.create_table(name, columns, st,
                            shard_key=SHARD_KEYS[name])

        table("warehouse", [("w_id", "int"), ("w_name", "str"),
                            ("w_ytd", "float")])
        table("district", [
            ("d_w_id", "int"), ("d_id", "int"), ("d_name", "str"),
            ("d_ytd", "float"), ("d_next_o_id", "int")])
        table("customer", [
            ("c_w_id", "int"), ("c_d_id", "int"), ("c_id", "int"),
            ("c_last", "str"), ("c_first", "str"), ("c_balance", "float"),
            ("c_ytd_payment", "float"), ("c_payment_cnt", "int"),
            ("c_delivery_cnt", "int"), ("c_data", "str")])
        table("item", [("i_id", "int"), ("i_name", "str"),
                       ("i_price", "float")])
        table("stock", [
            ("s_w_id", "int"), ("s_i_id", "int"), ("s_quantity", "int"),
            ("s_ytd", "float"), ("s_order_cnt", "int"),
            ("s_remote_cnt", "int")])
        table("orders", [
            ("o_w_id", "int"), ("o_d_id", "int"), ("o_id", "int"),
            ("o_c_id", "int"), ("o_carrier_id", "int"),
            ("o_ol_cnt", "int"), ("o_entry_d", "float")])
        table("new_order", [
            ("no_w_id", "int"), ("no_d_id", "int"), ("no_o_id", "int")])
        table("order_line", [
            ("ol_w_id", "int"), ("ol_d_id", "int"), ("ol_o_id", "int"),
            ("ol_number", "int"), ("ol_i_id", "int"),
            ("ol_supply_w_id", "int"), ("ol_quantity", "int"),
            ("ol_amount", "float"), ("ol_delivery_d", "float")])
        table("history", [
            ("h_c_w_id", "int"), ("h_c_d_id", "int"), ("h_c_id", "int"),
            ("h_amount", "float"), ("h_date", "float")])

        self._index("idx_warehouse", "warehouse", ["w_id"])
        self._index("idx_district", "district", ["d_w_id", "d_id"])
        self._index("idx_customer", "customer", ["c_w_id", "c_d_id", "c_id"])
        self._index("idx_customer_last", "customer",
                    ["c_w_id", "c_d_id", "c_last"])
        self._index("idx_item", "item", ["i_id"])
        self._index("idx_stock", "stock", ["s_w_id", "s_i_id"])
        self._index("idx_orders", "orders", ["o_w_id", "o_d_id", "o_id"])
        self._index("idx_orders_cust", "orders",
                    ["o_w_id", "o_d_id", "o_c_id", "o_id"])
        self._index("idx_new_order", "new_order",
                    ["no_w_id", "no_d_id", "no_o_id"])
        self._index("idx_order_line", "order_line",
                    ["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"])

    def _index(self, name: str, table: str, columns: list[str]) -> None:
        self.backend.create_index(name, table, columns,
                                  kind=self.index_kind,
                                  reference=self.reference,
                                  **self.index_options)

    # ------------------------------------------------------------------ load

    def load(self) -> None:
        """Generate the initial population, then bulk-load it.

        Row generation draws from the seeded RNG in ONE fixed order
        regardless of backend; loading goes through
        :meth:`WorkloadBackend.bulk_insert`, which sharded backends
        implement by dealing each table's slots to shards by load (the
        ``stock`` load gives every warehouse its own shard when there
        are as many shards), partitioning it by shard key and loading
        every shard directly (single-shard fast-path commits).
        """
        self.create_schema()
        cfg = self.config
        rng = self._rng
        rows: dict[str, list[Row]] = {name: [] for name in TABLES}
        for i in range(1, cfg.items + 1):
            rows["item"].append(
                (i, f"item-{i}", round(rng.uniform(1, 100), 2)))
        for w in range(1, cfg.warehouses + 1):
            rows["warehouse"].append((w, f"wh-{w}", 300000.0))
            for i in range(1, cfg.items + 1):
                rows["stock"].append(
                    (w, i, rng.randint(10, 100), 0.0, 0, 0))
            for d in range(1, cfg.districts_per_warehouse + 1):
                next_o = cfg.initial_orders_per_district + 1
                rows["district"].append(
                    (w, d, f"d-{w}-{d}", 30000.0, next_o))
                self._next_o_id[(w, d)] = next_o
                for c in range(1, cfg.customers_per_district + 1):
                    last = customer_last_name(
                        c - 1 if c <= 100 else rng.randint(0, 99))
                    rows["customer"].append(
                        (w, d, c, last, f"first-{c}", -10.0,
                         10.0, 1, 0, "data"))
                for o in range(1, cfg.initial_orders_per_district + 1):
                    c = rng.randint(1, cfg.customers_per_district)
                    ol_cnt = rng.randint(5, 15)
                    carrier = rng.randint(1, 10) if o < next_o - 10 else 0
                    rows["orders"].append(
                        (w, d, o, c, carrier, ol_cnt, 0.0))
                    if carrier == 0:
                        rows["new_order"].append((w, d, o))
                    for n in range(1, ol_cnt + 1):
                        rows["order_line"].append(
                            (w, d, o, n, rng.randint(1, cfg.items),
                             w, 5, round(rng.uniform(1, 100), 2),
                             0.0 if carrier == 0 else 1.0))
        for name in TABLES:
            if rows[name]:
                self.backend.bulk_insert(name, rows[name])
        self.backend.flush_all()
        self._loaded = True

    # ------------------------------------------------------------------- run

    def run(self, transactions: int) -> TPCCResult:
        if not self._loaded:
            raise WorkloadError("call load() before run()")
        rng = self._rng
        cfg = self.config
        result = TPCCResult(by_type={})
        start = self.backend.sim_now
        cuts = self._mix_thresholds()
        for _ in range(transactions):
            roll = rng.random()
            if roll < cuts[0]:
                kind, fn = "new_order", self._tx_new_order
            elif roll < cuts[1]:
                kind, fn = "payment", self._tx_payment
            elif roll < cuts[2]:
                kind, fn = "order_status", self._tx_order_status
            elif roll < cuts[3]:
                kind, fn = "delivery", self._tx_delivery
            else:
                kind, fn = "stock_level", self._tx_stock_level
            txn = self.backend.begin()
            if cfg.overhead_per_txn:
                self.backend.advance_clock(cfg.overhead_per_txn)
            try:
                fn(txn)
            except DeviceCrashError:
                # a dead device is a crash, not a workload-level abort —
                # let the crash harness recover the topology
                raise
            except ReproError:
                if txn.is_active:
                    txn.abort()
                result.aborted += 1
                continue
            if txn.is_active:
                txn.commit()
                result.committed += 1
                result.by_type[kind] = result.by_type.get(kind, 0) + 1
                if (cfg.vacuum_every
                        and result.committed % cfg.vacuum_every == 0):
                    for table in ("stock", "district", "customer",
                                  "warehouse", "orders", "order_line",
                                  "new_order"):
                        self.backend.vacuum(table)
            else:
                result.aborted += 1
        result.elapsed_sim_seconds = self.backend.sim_now - start
        return result

    def _mix_thresholds(self) -> tuple[float, float, float, float]:
        c = self.config
        a = c.new_order_weight
        b = a + c.payment_weight
        d = b + c.order_status_weight
        e = d + c.delivery_weight
        return (a, b, d, e)

    # ---------------------------------------------------------- transactions

    def _pick_wd(self) -> tuple[int, int]:
        cfg = self.config
        return (self._rng.randint(1, cfg.warehouses),
                self._rng.randint(1, cfg.districts_per_warehouse))

    def _pick_customer_key(self, txn: WorkloadTxn, w: int,
                           d: int) -> int:
        """60% by last name (secondary index), 40% by id (TPC-C rule)."""
        cfg, rng = self.config, self._rng
        if rng.random() < 0.6:
            num = rng.randint(0, min(cfg.customers_per_district, 100) - 1)
            last = customer_last_name(num)
            rows = txn.select("idx_customer_last", (w, d, last))
            if rows:
                rows.sort(key=lambda r: r[4])  # order by c_first
                return int(rows[len(rows) // 2][2])
        return rng.randint(1, cfg.customers_per_district)

    def _tx_new_order(self, txn: WorkloadTxn) -> None:
        cfg, rng = self.config, self._rng
        w, d = self._pick_wd()
        c = rng.randint(1, cfg.customers_per_district)
        rollback = rng.random() < 0.01  # 1% intentional rollbacks

        district = txn.select_hits("idx_district", (w, d))
        if not district:
            raise WorkloadError(f"missing district {(w, d)}")
        hit = district[0]
        o_id = hit.row[4]
        txn.update("district", hit, {"d_next_o_id": o_id + 1})
        self._next_o_id[(w, d)] = o_id + 1

        ol_cnt = rng.randint(5, 15)
        txn.insert("orders", (w, d, o_id, c, 0, ol_cnt, self._stamp()))
        txn.insert("new_order", (w, d, o_id))
        remote = 0
        for number in range(1, ol_cnt + 1):
            i_id = rng.randint(1, cfg.items)
            # a fraction of order lines come from a remote warehouse —
            # on a sharded backend that makes this transaction 2PC
            supply_w = w
            if (cfg.warehouses > 1
                    and rng.random() < cfg.remote_order_line_prob):
                supply_w = rng.choice(
                    [x for x in range(1, cfg.warehouses + 1) if x != w])
                remote += 1
            item = txn.select("idx_item", (i_id,))
            if not item:
                raise WorkloadError(f"missing item {i_id}")
            price = item[0][2]
            stock_hits = txn.select_hits("idx_stock", (supply_w, i_id))
            if not stock_hits:
                raise WorkloadError(f"missing stock {(supply_w, i_id)}")
            s = stock_hits[0]
            quantity = rng.randint(1, 10)
            s_quantity = s.row[2]
            new_q = (s_quantity - quantity if s_quantity - quantity >= 10
                     else s_quantity - quantity + 91)
            txn.update("stock", s, {
                "s_quantity": new_q,
                "s_ytd": s.row[3] + quantity,
                "s_order_cnt": s.row[4] + 1,
                "s_remote_cnt": s.row[5] + (1 if supply_w != w else 0)})
            txn.insert("order_line",
                       (w, d, o_id, number, i_id, supply_w, quantity,
                        round(quantity * price, 2), 0.0))
        self._note(f"new_order w={w} d={d} c={c} o={o_id} "
                   f"lines={ol_cnt} remote={remote} "
                   f"rollback={int(rollback)}")
        if rollback:
            txn.abort()

    def _tx_payment(self, txn: WorkloadTxn) -> None:
        rng = self._rng
        w, d = self._pick_wd()
        amount = round(rng.uniform(1.0, 5000.0), 2)

        wh = txn.select_hits("idx_warehouse", (w,))
        txn.update("warehouse", wh[0],
                   {"w_ytd": wh[0].row[2] + amount})
        dist = txn.select_hits("idx_district", (w, d))
        txn.update("district", dist[0],
                   {"d_ytd": dist[0].row[3] + amount})
        c = self._pick_customer_key(txn, w, d)
        cust = txn.select_hits("idx_customer", (w, d, c))
        if not cust:
            raise WorkloadError(f"missing customer {(w, d, c)}")
        hit = cust[0]
        txn.update("customer", hit, {
            "c_balance": hit.row[5] - amount,
            "c_ytd_payment": hit.row[6] + amount,
            "c_payment_cnt": hit.row[7] + 1})
        txn.insert("history", (w, d, c, amount, self._stamp()))
        self._note(f"payment w={w} d={d} c={c} amount={amount}")

    def _tx_order_status(self, txn: WorkloadTxn) -> None:
        w, d = self._pick_wd()
        c = self._pick_customer_key(txn, w, d)
        txn.select("idx_customer", (w, d, c))
        # latest order of the customer
        orders = txn.range_select("idx_orders_cust",
                                  (w, d, c), (w, d, c, TOP))
        self._note(f"order_status w={w} d={d} c={c}")
        if not orders:
            return
        latest = max(orders, key=lambda r: r[2])
        o_id = latest[2]
        txn.range_select("idx_order_line", (w, d, o_id),
                         (w, d, o_id, TOP))

    def _tx_delivery(self, txn: WorkloadTxn) -> None:
        cfg = self.config
        w = self._rng.randint(1, cfg.warehouses)
        carrier = self._rng.randint(1, 10)
        self._note(f"delivery w={w} carrier={carrier}")
        for d in range(1, cfg.districts_per_warehouse + 1):
            pending = txn.range_hits("idx_new_order", (w, d),
                                     (w, d, TOP))
            if not pending:
                continue
            oldest = min(pending, key=lambda h: h.row[2])
            o_id = oldest.row[2]
            txn.delete("new_order", oldest)
            orders = txn.select_hits("idx_orders", (w, d, o_id))
            total = 0.0
            if orders:
                txn.update("orders", orders[0],
                           {"o_carrier_id": carrier})
                c = orders[0].row[3]
            else:
                continue
            lines = txn.range_hits("idx_order_line", (w, d, o_id),
                                   (w, d, o_id, TOP))
            now = self._stamp()
            for line in lines:
                total += line.row[7]
                txn.update("order_line", line,
                           {"ol_delivery_d": now + 1.0})
            cust = txn.select_hits("idx_customer", (w, d, c))
            if cust:
                txn.update("customer", cust[0], {
                    "c_balance": cust[0].row[5] + total,
                    "c_delivery_cnt": cust[0].row[8] + 1})

    def _tx_stock_level(self, txn: WorkloadTxn) -> None:
        cfg = self.config
        w, d = self._pick_wd()
        threshold = self._rng.randint(10, 20)
        next_o = self._next_o_id.get((w, d),
                                     cfg.initial_orders_per_district + 1)
        lo_o = max(1, next_o - 20)
        lines = txn.range_select("idx_order_line", (w, d, lo_o),
                                 (w, d, next_o, TOP))
        item_ids = {row[4] for row in lines}
        low = 0
        for i_id in sorted(item_ids):
            stock = txn.select("idx_stock", (w, i_id))
            if stock and stock[0][2] < threshold:
                low += 1
        self._note(f"stock_level w={w} d={d} t={threshold} low={low}")
