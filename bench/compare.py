"""Compare two result files written by ``python -m bench.run --out``.

``python -m bench.compare BASE.json NEW.json`` prints one row per
end-to-end metric x workload — base, new, ratio (new / base), bound and a
verdict — then the per-layer rows that moved, and exits non-zero on any
``worse`` row or any rise in failed ops.

Verdicts: ``same`` (a timing within its bound; a deterministic metric
only when identical), ``changed`` (a deterministic metric that differs
but stays within its bound), ``better`` / ``worse`` (beyond the bound),
``unresolved`` (the run's own uncertainty is wider than the bound, so
neither "same" nor a change can be claimed).  That uncertainty is, for
``cpu_us_per_op``, the standard error of the median of the chunks,
0.93 x IQR / sqrt(chunks) - not the raw chunk IQR, which also holds the
real differences between chunks (merges, tables growing from round to
round) - and for ``setup_s`` half the range of the three set-ups.

The bounds in ``BENCHMARK.json`` have to absorb seed-to-seed spread.  Two
files taken with the same seed, seconds and scale fed the program the
same inputs, so there a deterministic metric is held to ``SAME_INPUT_BOUND``
(1%) instead: it repeats exactly for unchanged code, and any move beyond
that is the code's.  Under each workload's rows the uncalibrated CPU time
per op and the calibration ratio of the same pass are printed (not
judged), so a shift in the calibration kernel itself shows beside the
calibrated metric it divides.

``--aa`` asserts that two runs of the SAME code and seed agree: every
deterministic metric identical, every timing inside its bound, no
``unresolved`` row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:           # run as a script: find our own package
    sys.path.insert(0, _ROOT)

from bench.metrics import END_TO_END, PER_LAYER, Metric  # noqa: E402

#: a per-layer timing counts as "moved" beyond this relative change
LAYER_MOVE = 0.05
#: bound of a deterministic metric when both files had the same inputs
SAME_INPUT_BOUND = 0.01
#: what makes the inputs of two result files the same
INPUT_KEYS = ("seed", "seconds", "scale")


def _spread(cell: dict[str, Any], metric: str) -> float:
    """The run's own relative uncertainty of a timing (0 = unknown)."""
    spread = cell.get("spread", {})
    if metric == "cpu_us_per_op":
        return (0.93 * spread.get("cpu_us_per_op_chunk_iqr_frac", 0.0)
                / math.sqrt(spread.get("chunks", 1)))
    if metric == "setup_s":
        samples = sorted(spread.get("setup_s_samples", []))
        if len(samples) >= 2 and samples[len(samples) // 2]:
            return ((samples[-1] - samples[0]) / 2
                    / samples[len(samples) // 2])
    return 0.0


def verdict(metric: Metric, bound: float, base: float, new: float,
            spread: float) -> str:
    if base == new:
        return "same"
    if spread > bound:
        return "unresolved"
    if not base:
        return "worse" if (new > 0) == (metric.better == "lower") else "better"
    change = (new - base) / abs(base)
    if metric.better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "changed" if metric.det else "same"


def _row(workload: str, metric: str, base: float, new: float, bound: str,
         verdict: str) -> str:
    ratio = new / base if base else float("nan")
    return (f"{workload:16s} {metric:20s} {base:14.6g} {new:14.6g} "
            f"{ratio:9.4f} {bound:>6s}  {verdict}")


def compare(base: dict[str, Any], new: dict[str, Any], aa: bool
            ) -> tuple[list[str], list[str]]:
    """(report lines, failures)."""
    lines: list[str] = []
    failures: list[str] = []
    same_inputs = all(base.get(k) == new.get(k) for k in INPUT_KEYS)
    header = (f"{'workload':16s} {'metric':20s} {'base':>14s} {'new':>14s} "
              f"{'new/base':>9s} {'bound':>6s}  verdict")
    lines += ["end-to-end", header]
    for name, b_cell in base["workloads"].items():
        n_cell = new["workloads"].get(name)
        if n_cell is None:
            failures.append(f"{name}: missing from the new file")
            continue
        for metric in END_TO_END:
            b = b_cell["end_to_end"][metric.name]["value"]
            n = n_cell["end_to_end"][metric.name]["value"]
            spread = max(_spread(b_cell, metric.name),
                         _spread(n_cell, metric.name))
            bound = (SAME_INPUT_BOUND if metric.det and same_inputs
                     else metric.bound or 0.0)
            v = verdict(metric, bound, b, n, spread)
            lines.append(_row(name, metric.name, b, n, f"{bound:.2f}", v))
            if v == "worse":
                failures.append(f"{name} {metric.name}: worse "
                                f"({n:.6g} vs base {b:.6g})")
            if aa and metric.det and b != n:
                failures.append(f"{name} {metric.name}: deterministic "
                                f"metric differs ({b!r} vs {n!r})")
            if aa and v == "unresolved":
                failures.append(f"{name} {metric.name}: unresolved (own "
                                f"uncertainty {spread:.3f} > bound)")
        for key, b in b_cell["uncalibrated"].items():
            lines.append(_row(name, key, b, n_cell["uncalibrated"][key], "",
                              "reported"))
        for key in ("failed", "aborts"):
            if n_cell[key] > b_cell[key]:
                failures.append(f"{name}: {key} rose from {b_cell[key]} "
                                f"to {n_cell[key]}")
        if not n_cell["correct"]:
            failures.append(f"{name}: output checks failed in the new run")

    lines += ["", "per-layer rows that moved (deterministic: any change; "
              f"timings: more than {LAYER_MOVE:.0%})", header]
    for name, b_cell in base["workloads"].items():
        n_cell = new["workloads"].get(name)
        if n_cell is None:
            continue
        for metric in PER_LAYER:
            b = b_cell["per_layer"][metric.name]["value"]
            n = n_cell["per_layer"][metric.name]["value"]
            if b == n:
                continue
            if not metric.det and b and abs(n / b - 1.0) <= LAYER_MOVE:
                continue
            lines.append(_row(name, metric.name, b, n, "",
                              "changed" if metric.det else "moved"))
            if aa and metric.det:
                failures.append(f"{name} {metric.name}: deterministic "
                                f"per-layer metric differs")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--aa", action="store_true",
                        help="assert two runs of the same code agree")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    for key in INPUT_KEYS:
        if base.get(key) != new.get(key):
            print(f"warning: {key} differs ({base.get(key)} vs "
                  f"{new.get(key)}); deterministic metrics will not match",
                  file=sys.stderr)
    for side, data in (("base", base), ("new", new)):
        if data.get("environment", {}).get("noisy"):
            print(f"warning: {side} was taken on a noisy box (load average "
                  f"above nproc)", file=sys.stderr)
    lines, failures = compare(base, new, args.aa)
    print("\n".join(lines))
    if failures:
        print("\nFAILURES", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno regressions" if not args.aa else "\nA/A: runs agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
