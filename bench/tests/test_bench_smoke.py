"""Smoke test of the benchmark itself (not part of tier-1).

    python -m pytest bench/tests

Runs every workload at ``--scale 0.02`` — twice untraced and once traced —
and checks the instrument, not the program: every metric ``BENCHMARK.json``
names is produced, finite and has a unit; deterministic facts are equal
across two runs and across traced / untraced; spans are well formed; the
boundary table still resolves against the tree.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench import compare, metrics, run, trace  # noqa: E402
from bench.workloads import RUN_SECONDS, SPECS, TPCCDriver  # noqa: E402

SCALE = 0.02
SEED = 5
CHUNKS = 4
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def spans_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return tmp_path_factory.mktemp("spans")


@pytest.fixture(scope="module")
def passes(spans_dir: Path) -> dict[str, dict[str, Any]]:
    """{workload: {"a", "b": untraced facts, "t": traced facts}}; the
    traced pass's spans land in ``spans_dir/<workload>.jsonl``"""
    return {name: {
        "a": run.run_worker(name, SEED, CHUNKS, SCALE),
        "b": run.run_worker(name, SEED, CHUNKS, SCALE),
        "t": run.run_worker(name, SEED, CHUNKS, SCALE, "--traced",
                            "--spans-out", str(spans_dir / f"{name}.jsonl")),
    } for name in SPECS}


def _names(section: str) -> list[str]:
    return [m["name"] for m in BENCHMARK[section]]


def test_benchmark_json_is_printed_from_the_metric_table() -> None:
    want = metrics.benchmark_json(
        [(s.name, s.why) for s in SPECS.values()], RUN_SECONDS)
    assert BENCHMARK == want
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])


def test_boundaries_resolve_against_the_tree() -> None:
    resolved = trace.resolve_boundaries()
    assert len(resolved) == sum(len(row[3]) for row in trace.BOUNDARIES)
    # the one span whose return value the tracer also counts
    assert "MVPBT.search" in {name for _l, name, *_rest in resolved}


def test_tracer_restores_what_it_patched() -> None:
    before = {(id(owner), attr): fn
              for _l, _n, owner, attr, fn in trace.resolve_boundaries()}
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert tracer.inner_ns >= 0 and tracer.outer_ns >= 0
    finally:
        tracer.uninstall()
    after = {(id(owner), attr): fn
             for _l, _n, owner, attr, fn in trace.resolve_boundaries()}
    assert before == after


def test_every_output_check_passes(passes: dict[str, Any]) -> None:
    for name, got in passes.items():
        for facts in got.values():
            assert facts["errors"] == [], name
            assert facts["failed"] == 0, name


def test_every_named_metric_is_present_and_finite(
        passes: dict[str, Any]) -> None:
    for name, got in passes.items():
        e2e = metrics.end_to_end(got["a"], [metrics.setup_s(got["a"])])
        layer = metrics.per_layer(got["a"], got["t"])
        assert list(e2e) == _names("end_to_end"), name
        assert sorted(layer) == sorted(_names("per_layer")), name
        for metric, value in {**e2e, **layer}.items():
            assert math.isfinite(value), (name, metric)
        for metric, value in e2e.items():
            assert value > 0, (name, metric)
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert spec["unit"] and spec["better"] in ("lower", "higher")


def test_deterministic_facts_repeat_exactly(passes: dict[str, Any]) -> None:
    for name, got in passes.items():
        assert metrics.det_mismatches(got["a"], got["b"]) == [], name
        assert metrics.det_mismatches(got["a"], got["t"]) == [], name
        det = [m.name for m in metrics.END_TO_END if m.det]
        first = metrics.end_to_end(got["a"], [1.0])
        second = metrics.end_to_end(got["b"], [1.0])
        assert ([json.dumps(first[m]) for m in det]
                == [json.dumps(second[m]) for m in det]), name


def test_spans_are_well_formed_and_fit_in_the_traced_time(
        passes: dict[str, Any]) -> None:
    for name, got in passes.items():
        traced = got["t"]
        by_name = traced["spans"]["by_name"]
        assert traced["tracer"]["spans"] == sum(
            agg["n"] for agg in by_name.values())
        # "never closed / outside parent / negative self" land in errors
        assert traced["errors"] == [], name
        assert all(0 <= agg["self_ns"] <= agg["raw_dur_ns"]
                   for agg in by_name.values()), name
        # spans are stamped with the wall clock, so the chunks' wall time
        # (not their CPU time, which steal makes smaller) is what the
        # layers' self times partition
        wall_ns = sum(c["wall_ns"] for c in traced["chunks"])
        layers = {agg["layer"] for agg in by_name.values()}
        self_ns = sum(agg["self_ns"] for agg in by_name.values())
        assert self_ns <= wall_ns, (name, self_ns, wall_ns)
        assert {"workloads", "engine", "txn", "core", "buffer", "table",
                "durability", "storage", "sim"} <= layers, name
        served = issubclass(SPECS[name].driver, TPCCDriver)
        assert ({"serve", "shard"} <= layers) == served, name


def test_span_file_parses_and_spans_carry_their_roots_request_id(
        passes: dict[str, Any], spans_dir: Path) -> None:
    for name, got in passes.items():
        with open(spans_dir / f"{name}.jsonl") as fh:
            spans = [json.loads(line) for line in fh]
        assert len(spans) == got["t"]["tracer"]["spans"], name
        assert [s["id"] for s in spans] == list(range(len(spans))), name
        by_name = got["t"]["spans"]["by_name"]
        op_requests = []
        for span in spans:
            assert span["layer"] == by_name[span["name"]]["layer"], name
            assert 0 < span["start_ns"] <= span["end_ns"], name
            top = span
            while top["parent"] >= 0:
                assert top["parent"] < top["id"], name
                top = spans[top["parent"]]
            assert span["request"] == top["request"], (name, span)
            # an op's root carries the id the proxy gave it; work outside
            # every op (CH's held snapshot) carries none
            assert (top["request"] > 0) == top["name"].startswith("op:")
            if span is top and top["request"]:
                op_requests.append(top["request"])
        assert len(op_requests) == got["t"]["ops"], name
        assert op_requests == sorted(set(op_requests)), name


def test_layer_predictions(passes: dict[str, Any]) -> None:
    """serve / shard do nothing on the bare-node workloads; searches
    belong to ycsb_a_cold and scans to ycsb_e_hot."""
    layer = {name: metrics.per_layer(got["a"], got["t"])
             for name, got in passes.items()}
    for name in ("ycsb_a_cold", "ycsb_e_hot"):
        for metric, value in layer[name].items():
            if metric.startswith(("serve.", "shard."))\
                    and metric != "shard.sim_skew":
                assert value == 0, (name, metric)
    assert (layer["ycsb_a_cold"]["core.searches_per_op"]
            >= 10 * layer["ycsb_e_hot"]["core.searches_per_op"])
    assert layer["ycsb_a_cold"]["core.scans_per_op"] == 0
    assert layer["ycsb_e_hot"]["core.scans_per_op"] > 0.9
    assert layer["tpcc_served4"]["shard.cross_shard_commit_frac"] > 0


def _result(passes: dict[str, Any]) -> dict[str, Any]:
    cells = {}
    for name, got in passes.items():
        facts = got["a"]
        cells[name] = {
            "correct": True, "failed": facts["failed"],
            "aborts": facts["aborts"],
            "end_to_end": run.with_units(
                metrics.end_to_end(facts, [metrics.setup_s(facts)] * 3),
                BENCHMARK["end_to_end"]),
            "per_layer": run.with_units(
                metrics.per_layer(facts, got["t"]), BENCHMARK["per_layer"]),
            "spread": {"cpu_us_per_op_chunk_iqr_frac": 0.01,
                       "chunks": CHUNKS,
                       "setup_s_samples": [metrics.setup_s(facts)] * 3},
            "uncalibrated": {
                "cpu_raw_us_per_op":
                    metrics.cpu_us_per_op(facts, raw=True)[0],
                "calibration_ratio": metrics.calibration_ratio(facts)}}
    return {"seed": SEED, "seconds": 1, "scale": SCALE, "workloads": cells}


def test_compare_verdicts(passes: dict[str, Any]) -> None:
    base = _result(passes)
    _lines, failures = compare.compare(base, copy.deepcopy(base), aa=True)
    assert failures == []

    worse = copy.deepcopy(base)
    cell = worse["workloads"]["ycsb_a_cold"]
    cell["end_to_end"]["write_amp"]["value"] *= 1.5
    cell["failed"] += 1
    lines, failures = compare.compare(base, worse, aa=False)
    assert any("write_amp" in f and "worse" in f for f in failures)
    assert any("failed rose" in f for f in failures)
    assert any(" worse" in line for line in lines)
    assert any("calibration_ratio" in line and "reported" in line
               for line in lines)

    # same inputs: a deterministic metric is held to 1%, not to the
    # bound that absorbs seed-to-seed spread ...
    slower = copy.deepcopy(base)
    cell = slower["workloads"]["tpcc_served4"]["end_to_end"]
    cell["sim_ops_per_s"]["value"] *= 0.85
    cell["space_amp"]["value"] *= 1.005
    lines, failures = compare.compare(base, slower, aa=False)
    assert [f for f in failures if "worse" in f] == [
        f for f in failures if "sim_ops_per_s" in f] != []
    assert any("space_amp" in line and "changed" in line for line in lines)
    # ... and another seed's run gets the wide one
    slower["seed"] = SEED + 1
    _lines, failures = compare.compare(base, slower, aa=False)
    assert failures == []

    noisy = copy.deepcopy(base)
    cell = noisy["workloads"]["ycsb_e_hot"]
    cell["end_to_end"]["cpu_us_per_op"]["value"] *= 1.01
    cell["spread"]["cpu_us_per_op_chunk_iqr_frac"] = 0.9
    lines, failures = compare.compare(base, noisy, aa=False)
    assert failures == []
    assert any("cpu_us_per_op" in line and "unresolved" in line
               for line in lines)


@pytest.mark.parametrize("traced", [0, 1])
def test_contract_command_prints_the_result_line(traced: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "ycsb_a_cold", "--seed", "3", "--seconds", "1", "--scale",
         str(SCALE), "--trace", str(traced)],
        capture_output=True, text=True, timeout=120, cwd=ROOT.parent)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    section = "per_layer" if traced else "end_to_end"
    assert list(line["metrics"]) == _names(section)
    assert all(set(cell) == {"value", "unit"}
               for cell in line["metrics"].values())
