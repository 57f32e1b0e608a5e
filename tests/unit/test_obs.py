"""Unit tests for the observability layer: metrics registry and its views
of engine counts, tracer, query profiles, cross-component invariants,
disabled-mode behaviour."""

import json

import pytest

from repro.config import EngineConfig
from repro.engine.database import Database
from repro.errors import ConfigError, ObsError
from repro.obs import (COUNT_BUCKETS, LATENCY_BUCKETS_US, MetricsRegistry,
                       ObsConfig, Observability, Tracer, check_invariants)
from repro.obs.registry import Histogram
from repro.obs.tracing import NULL_SPAN
from repro.sim.clock import SimClock


def obs_db(**overrides):
    overrides.setdefault("buffer_pool_pages", 64)
    overrides.setdefault("partition_buffer_bytes", 2048)
    overrides.setdefault("obs", ObsConfig(enabled=True))
    db = Database(EngineConfig(**overrides))
    db.create_table("t", [("k", "int"), ("v", "int")], storage="sias")
    db.create_index("ix", "t", ["k"], kind="mvpbt")
    return db


def load_rows(db, n=120, evict_every=None):
    txn = db.begin()
    for i in range(n):
        db.insert(txn, "t", (i, i * 2))
        if evict_every and (i + 1) % evict_every == 0:
            txn.commit()
            db.catalog.index("ix").mvpbt.evict_partition()
            txn = db.begin()
    txn.commit()


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b.count")
        c.inc()
        c.inc(4)
        assert reg.counter_value("a.b.count") == 5
        g = reg.gauge("a.b.rate")
        g.set(0.5)
        h = reg.histogram("a.b.latency_us", LATENCY_BUCKETS_US)
        h.observe(3.0)
        h.observe(250.0)
        exported = reg.export()
        assert exported["counters"]["a.b.count"] == 5
        assert exported["gauges"]["a.b.rate"] == 0.5
        hist = exported["histograms"]["a.b.latency_us"]
        assert hist["count"] == 2
        assert hist["total"] == 253.0
        assert sum(hist["counts"]) == 2

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x.y") is reg.counter("x.y")
        assert reg.histogram("x.h", COUNT_BUCKETS) is reg.histogram(
            "x.h", COUNT_BUCKETS)

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x.y")
        with pytest.raises(ObsError):
            reg.gauge("x.y")
        with pytest.raises(ObsError):
            reg.histogram("x.y", COUNT_BUCKETS)

    def test_histogram_bounds_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("x.h", (1.0, 2.0))
        with pytest.raises(ObsError):
            reg.histogram("x.h", (1.0, 3.0))

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "UpperCase", "a..b", "a.b-c", ".a", "a."):
            with pytest.raises(ObsError):
                reg.counter(bad)

    def test_histogram_bucket_boundaries(self):
        h = Histogram("h", (1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(value)
        # value <= bound lands in that bucket; beyond the last = overflow
        assert h.counts == [2, 2, 1]

    def test_histogram_nonincreasing_bounds_raise(self):
        with pytest.raises(ObsError):
            Histogram("h", (1.0, 1.0))

    def test_source_is_read_at_every_read_and_replaced_by_key(self):
        reg = MetricsRegistry()
        count = [1]
        reg.register_source("s", lambda: {"s.count": count[0],
                                          "s.level": 0.5})
        count[0] = 7
        assert reg.counter_value("s.count") == 7
        assert reg.export() == {"counters": {"s.count": 7},
                                "gauges": {"s.level": 0.5},
                                "histograms": {}}
        reg.register_source("s", lambda: {"s.count": 2, "s.level": 1.0})
        assert reg.counter_value("s.count") == 2
        assert reg.get("s.count") is None       # a view, not an instrument
        with pytest.raises(ObsError):
            reg.counter_value("s.level")        # a gauge
        with pytest.raises(ObsError):
            reg.register_source("t", lambda: {"s.count": 0})
        with pytest.raises(ObsError):
            reg.register_source("t", lambda: {"Bad-Name": 0})

    def test_to_json_is_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc(2)
        text = reg.to_json()
        assert text.index('"a.first"') < text.index('"z.last"')
        assert json.loads(text)["counters"] == {"a.first": 2, "z.last": 1}


# -------------------------------------------------------------------- tracer


class TestTracer:
    def make(self, capacity=16):
        return Tracer(SimClock(), capacity=capacity)

    def test_span_emits_begin_end_with_duration(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("op", index="ix") as span:
            clock.advance(1.5)
            span.set(rows=3)
        begin, end = tracer.events()
        assert begin["kind"] == "B" and begin["attrs"] == {"index": "ix"}
        assert end["kind"] == "E" and end["attrs"] == {"rows": 3}
        assert end["dur"] == pytest.approx(1.5)
        assert begin["span"] == end["span"]

    def test_nesting_depth(self):
        tracer = self.make()
        with tracer.span("outer"):
            tracer.emit("point")
            with tracer.span("inner"):
                pass
        depths = [(e["name"], e["kind"], e["depth"])
                  for e in tracer.events()]
        assert depths == [("outer", "B", 1), ("point", "P", 1),
                          ("inner", "B", 2), ("inner", "E", 2),
                          ("outer", "E", 1)]

    def test_crossing_span_ends_raise(self):
        tracer = self.make()
        a = tracer.span("a")
        b = tracer.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(ObsError):
            a.__exit__(None, None, None)

    def test_error_exit_flags_end_event(self):
        tracer = self.make()
        with pytest.raises(ValueError):
            with tracer.span("op"):
                raise ValueError("boom")
        end = tracer.events()[-1]
        assert end["kind"] == "E" and end["attrs"] == {"error": True}
        assert tracer.open_spans == 0

    def test_ring_buffer_drops_oldest(self):
        tracer = self.make(capacity=4)
        for i in range(10):
            tracer.emit("e", i=i)
        events = tracer.events()
        assert len(events) == 4
        assert [e["attrs"]["i"] for e in events] == [6, 7, 8, 9]

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(SimClock(), enabled=False)
        assert tracer.span("op") is NULL_SPAN
        with tracer.span("op") as span:
            span.set(x=1)
        tracer.emit("p")
        assert tracer.events() == []

    def test_export_jsonl_one_sorted_line_per_event(self):
        tracer = self.make()
        tracer.emit("b", z=1, a=2)
        lines = tracer.export_jsonl().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["attrs"] == {"a": 2, "z": 1}
        assert lines[0].index('"a"') < lines[0].index('"z"')

    def test_clear_keeps_counters_running(self):
        tracer = self.make()
        tracer.emit("a")
        tracer.clear()
        tracer.emit("b")
        assert [e["name"] for e in tracer.events()] == ["b"]
        assert tracer.events()[0]["i"] == 1  # sequence not reset


# -------------------------------------------------------------------- config


class TestObsConfig:
    def test_defaults_off(self):
        config = EngineConfig()
        assert config.obs.enabled is False
        assert Database(config).obs is None

    def test_metrics_only_mode(self):
        obs = Observability(ObsConfig(enabled=True, tracing=False),
                            SimClock())
        assert obs.tracer.span("x") is NULL_SPAN
        obs.registry.counter("a.b").inc()
        assert obs.registry.counter_value("a.b") == 1

    def test_full_mode_traces_into_the_default_ring(self):
        obs = Observability(ObsConfig(enabled=True), SimClock())
        assert obs.tracer.enabled and obs.tracer.capacity == 65536
        obs.tracer.emit("p", x=1)
        assert [e["name"] for e in obs.tracer.events()] == ["p"]

    @pytest.mark.parametrize("tracing", [True, False])
    def test_registry_is_live_in_either_mode(self, tracing):
        obs = Observability(ObsConfig(enabled=True, tracing=tracing),
                            SimClock())
        reg = obs.registry
        reg.counter("a.count").inc(3)
        reg.gauge("a.rate").set(0.25)
        reg.histogram("a.latency_us", LATENCY_BUCKETS_US).observe(7.0)
        exported = reg.export()
        assert exported["counters"]["a.count"] == 3
        assert exported["gauges"]["a.rate"] == 0.25
        assert exported["histograms"]["a.latency_us"]["count"] == 1


# ------------------------------------------------------------------ profiles


class TestProfiles:
    def test_scan_profile_covers_all_partitions(self):
        db = obs_db()
        load_rows(db, 60, evict_every=20)
        txn = db.begin()
        profile = db.explain_scan(txn, "ix", (0,), (60,))
        txn.commit()
        assert profile["op"] == "range_scan"
        assert profile["rows"] == 60
        assert profile["partitions"]["consulted"] == 4
        assert profile["visibility"]["checked"] >= 60
        assert profile["sim_seconds"] > 0
        assert profile["buffer"]["pages_pinned"] > 0

    def test_profile_emits_trace_event(self):
        db = obs_db()
        load_rows(db, 10)
        txn = db.begin()
        db.explain_scan(txn, "ix", (1,), (1,))
        txn.commit()
        names = [e["name"] for e in db.obs.tracer.events()]
        assert "query.profile" in names

    def test_explain_requires_obs(self):
        db = Database(EngineConfig())
        db.create_table("t", [("k", "int")], storage="sias")
        db.create_index("ix", "t", ["k"], kind="mvpbt")
        txn = db.begin()
        with pytest.raises(ConfigError):
            db.explain_scan(txn, "ix", (1,), (1,))
        with pytest.raises(ConfigError):
            db.metrics_snapshot()
        txn.commit()


# ---------------------------------------------------------------- invariants


class TestInvariants:
    def test_clean_workload_has_no_violations(self):
        db = obs_db()
        load_rows(db, 150, evict_every=40)
        txn = db.begin()
        db.range_select(txn, "ix", None, None)
        db.select(txn, "ix", (3,))
        txn.commit()
        assert check_invariants(db) == []

    def test_commit_path_accounting_on_a_durable_instance(self):
        """Every commit either appended a COMMIT marker or was elided, and
        the registry's append/byte totals are the log's own."""
        db = obs_db(durability=True)
        load_rows(db, 150, evict_every=40)
        for key in (3, 4, 5):
            txn = db.begin()            # wrote nothing: elided
            db.select(txn, "ix", (key,))
            txn.commit()
        assert check_invariants(db) == []
        cv = db.obs.registry.counter_value
        wal = db.durability.wal
        assert cv("wal.commits_elided") == 3
        assert cv("wal.appends") == wal.appends == wal.commit_markers
        assert cv("wal.bytes_appended") == wal.bytes_written > 0
        appended = [e for e in db.obs.tracer.events()
                    if e["name"] == "wal.append"]
        assert len(appended) == wal.appends
        assert sum(e["attrs"]["bytes"] for e in appended) \
            == wal.bytes_written
        db.obs.registry.counter("wal.commits_elided").inc()
        assert any("COMMIT markers + elided" in p
                   for p in check_invariants(db))

    def test_served_group_commits_keep_the_accounting(self):
        db = obs_db(durability=True)
        with db.serve() as server, server.session() as s:
            for i in range(4):
                s.begin()
                s.insert("t", (i, i))
                s.commit()
                s.begin()
                s.select("ix", (i,))
                s.commit()
        assert check_invariants(db) == []
        assert db.obs.registry.counter_value("wal.commits_elided") == 4

    def test_a_histogram_out_of_step_is_detected(self):
        db = obs_db()
        load_rows(db, 20)
        db.obs.registry.get("txn.commit.latency_us").observe(1.0)
        assert any("txn.commit.latency_us" in p
                   for p in check_invariants(db))

    def test_disabled_db_reports_why(self):
        db = Database(EngineConfig())
        problems = check_invariants(db)
        assert problems and "disabled" in problems[0]

    def test_metrics_snapshot_reads_gauges(self):
        db = obs_db()
        load_rows(db, 50, evict_every=20)
        snap = db.metrics_snapshot()
        assert snap["gauges"]["mvpbt.partitions"] == float(
            db.catalog.index("ix").mvpbt.partition_count)
        assert snap["gauges"]["sim.clock.seconds"] == db.clock.now
        assert 0.0 <= snap["gauges"]["buffer.pool.hit_rate"] <= 1.0


# --------------------------------------------------------------------- views

#: DESIGN.md §13.2: every counter and gauge a durable Database exports
CATALOGUE = {
    "txn.begin.count", "txn.commit.count", "txn.abort.count",
    "buffer.pool.lookups", "buffer.pool.hits", "buffer.pool.misses",
    "buffer.pool.evictions", "buffer.pool.writebacks",
    "buffer.pool.hit_rate", "buffer.pool.resident_pages",
    "device.reads", "device.writes", "device.bytes_read",
    "device.bytes_written",
    "mvpbt.search.count", "mvpbt.scan.count",
    "mvpbt.scan.pages_batch_decoded", "mvpbt.scan.zero_copy_bytes",
    "mvpbt.scan.pages_skipped_zone_map", "mvpbt.scan.pages_skipped_min_ts",
    "mvpbt.prune.bloom", "mvpbt.prune.zone_map", "mvpbt.prune.min_ts",
    "mvpbt.evict.count", "mvpbt.evict.pages_written",
    "mvpbt.evict.bytes_written", "mvpbt.merge.count",
    "mvpbt.merge.pages_written", "mvpbt.merge.bytes_written",
    "mvpbt.rebuild.count", "mvpbt.bulk_load.count",
    "mvpbt.gc.purged_eviction", "mvpbt.gc.purged_page_level",
    "mvpbt.partitions",
    "wal.appends", "wal.entries", "wal.bytes_appended", "wal.pad_bytes",
    "wal.commits_elided", "wal.markers_deferred", "wal.pages_freed",
    "wal.checkpoints",
    "manifest.flips",
    "recovery.replays", "recovery.wal_records_replayed",
    "sim.clock.seconds",
}
#: instruments the operation they count creates on first use
FIRST_USE = {"mvpbt.rebuild.count", "recovery.replays",
             "recovery.wal_records_replayed"}


def exported_names(snap):
    return set(snap["counters"]) | set(snap["gauges"])


def evict_merge_and_read(db):
    load_rows(db, 150, evict_every=40)
    db.catalog.index("ix").mvpbt.merge_partitions()
    txn = db.begin()
    db.range_select(txn, "ix", None, None)
    db.select(txn, "ix", (3,))
    txn.commit()


class TestViews:
    def test_catalogue_is_pinned(self):
        db = obs_db(durability=True)
        evict_merge_and_read(db)
        snap = db.metrics_snapshot()
        assert exported_names(snap) == CATALOGUE - FIRST_USE
        assert set(snap["histograms"]) == {"txn.commit.latency_us",
                                           "mvpbt.scan.hits"}
        # views are present before anything they count happened
        assert snap["counters"]["mvpbt.bulk_load.count"] == 0
        db = Database.recover(db)
        assert exported_names(db.metrics_snapshot()) \
            == CATALOGUE - {"mvpbt.rebuild.count"}

    def test_views_read_the_recovered_engine(self):
        db = obs_db(durability=True)
        evict_merge_and_read(db)
        db = Database.recover(db)
        txn = db.begin()
        db.select(txn, "ix", (5,))
        txn.commit()
        cv = db.obs.registry.counter_value
        trees = [ix.mvpbt for ix in db.catalog.indexes if ix.is_mvpbt]
        assert cv("mvpbt.search.count") \
            == sum(t.stats.searches for t in trees) == 1
        assert cv("txn.commit.count") == db.txn.committed_count
        assert cv("wal.appends") == db.durability.wal.appends
        assert cv("device.reads") == db.device.stats.reads

    def test_pad_bytes_is_a_view_of_the_log(self):
        """The log space aligned appends spend is the log's own count."""
        db = obs_db(durability=True)
        evict_merge_and_read(db)
        wal = db.durability.wal
        assert wal.pad_bytes > 0
        assert db.obs.registry.counter_value("wal.pad_bytes") \
            == wal.pad_bytes
        with pytest.raises(ObsError):
            db.obs.registry.counter("wal.pad_bytes")

    def test_a_view_name_takes_no_instrument(self):
        reg = obs_db(durability=True).obs.registry
        for name in ("txn.commit.count", "buffer.pool.hits",
                     "device.writes", "mvpbt.search.count", "wal.appends"):
            with pytest.raises(ObsError):
                reg.counter(name)
        for name in ("mvpbt.partitions", "sim.clock.seconds"):
            with pytest.raises(ObsError):
                reg.gauge(name)
        with pytest.raises(ObsError):
            reg.register_source("shadow", lambda: {"txn.commit.count": 0})

    def test_scan_hits_histogram_counts_its_own_scan(self):
        """Searches and other scans on the tree between two ``next()``
        calls of a scan do not leak into its observation."""
        db = obs_db()
        load_rows(db, 200)
        tree = db.catalog.index("ix").mvpbt
        txn = db.begin()
        chunks = tree.scan_chunks(txn)
        returned = len(next(chunks))
        for key in range(50):
            assert len(tree.search(txn, (key,))) == 1
        assert len(tree.range_scan(txn, (0,), (9,))) == 10
        returned += sum(len(chunk) for chunk in chunks)
        txn.commit()
        hist = db.obs.registry.get("mvpbt.scan.hits")
        assert returned == 200
        assert (hist.count, hist.total) == (2, 210.0)
        assert check_invariants(db) == []


# ------------------------------------------------------------ device mirror


class TestDeviceMirror:
    def test_device_counters_match_device_stats(self):
        db = obs_db()
        load_rows(db, 100, evict_every=25)
        stats = db.device.stats
        cv = db.obs.registry.counter_value
        assert cv("device.bytes_written") == stats.bytes_written
        assert cv("device.bytes_read") == stats.bytes_read
        assert cv("device.reads") == stats.seq_reads + stats.rand_reads
        assert cv("device.writes") == stats.seq_writes + stats.rand_writes

    def test_mirror_independent_of_iotrace_capture_flag(self):
        db = obs_db()
        assert not db.trace.enabled  # capture off, listener still fires
        load_rows(db, 60, evict_every=20)
        assert db.obs.registry.counter_value("device.writes") > 0
        assert len(db.trace) == 0
