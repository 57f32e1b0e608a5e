"""tools/own_clock.py: a served pass's per-op own-clock time and bounds."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from bench import client  # noqa: E402
from tools import own_clock  # noqa: E402


def test_a_small_served_pass_reports_bounds_and_unpatches() -> None:
    end_op = client.Recorder.end_op
    out = own_clock.measure("tpcc_served4", seed=11, chunks=1, scale=0.1)
    assert client.Recorder.end_op is end_op
    assert out["ops"] > 0
    # one client runs an op's legs one after another: summing the
    # clocks' advances can only cost more than overlapping them
    assert 0 < out["series_ops_per_s"] <= out["parallel_ops_per_s"]
    assert 0 < out["own_p50_us"] <= out["own_p99_us"]
