"""The benchmark runner.

Two ways in, one measuring path:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, one kind of pass (what ``BENCHMARK.json`` names).  With
    ``--trace 0`` the end-to-end metrics from an untraced pass; with
    ``--trace 1`` the per-layer metrics from an (untraced, traced) pair
    over a quarter of the op stream.  The last line of standard output is
    one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``PYTHONPATH=src python -m bench.run --seed 11 --out FILE``
    all four workloads, both kinds of pass, every metric printed by name
    with its unit, everything written to FILE for ``bench/compare.py``
    and each traced pass's spans to ``FILE.<workload>.trace.jsonl``;
    exits non-zero if any output check fails.

Every pass runs in a fresh ``python -m bench.worker`` subprocess with
``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):  # run as a script: find bench and repro
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench import metrics  # noqa: E402

#: a pass that takes longer than this is killed (the contract's cap is 180)
PASS_TIMEOUT_S = 170
SETUPS = 3

def _load_benchmark_json() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)  # type: ignore[no-any-return]


def run_worker(workload: str, seed: int, chunks: int, scale: float,
               *flags: str) -> dict[str, Any]:
    """One pass in a subprocess; returns its facts."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "bench.worker", "--workload", workload,
         "--seed", str(seed), "--chunks", str(chunks),
         "--scale", repr(scale), *flags],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S)
    if proc.returncode:
        raise SystemExit(f"bench.worker {workload} {' '.join(flags)} "
                         f"exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])  # type: ignore[no-any-return]


def _chunks(workload: str, seconds: int, traced: bool) -> int:
    from bench.workloads import SPECS, chunk_count
    if workload not in SPECS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"known: {', '.join(SPECS)}")
    return chunk_count(SPECS[workload], seconds, traced)


def measure_end_to_end(workload: str, seed: int, seconds: int,
                       scale: float) -> dict[str, Any]:
    """Set up three times (two set-up-only passes, then the measured
    one) and time one full untraced pass."""
    chunks = _chunks(workload, seconds, traced=False)
    setups = [metrics.setup_s(run_worker(workload, seed, chunks, scale,
                                         "--setup-only"))
              for _ in range(SETUPS - 1)]
    facts = run_worker(workload, seed, chunks, scale)
    setups.append(metrics.setup_s(facts))
    _median, iqr_frac = metrics.cpu_us_per_op(facts)
    return {
        "facts": facts,
        "values": metrics.end_to_end(facts, setups),
        "spread": {"cpu_us_per_op_chunk_iqr_frac": iqr_frac,
                   "chunks": chunks, "setup_s_samples": setups},
        # what the calibration did to the gated CPU metric, so that a
        # shift in the kernel itself shows beside it
        "uncalibrated": {
            "cpu_raw_us_per_op": metrics.cpu_us_per_op(facts, raw=True)[0],
            "calibration_ratio": metrics.calibration_ratio(facts)},
        "errors": list(facts["errors"]),
    }


def measure_per_layer(workload: str, seed: int, seconds: int, scale: float,
                      spans_out: str | None = None) -> dict[str, Any]:
    """The same shorter op stream twice: untraced, then traced."""
    chunks = _chunks(workload, seconds, traced=True)
    plain = run_worker(workload, seed, chunks, scale)
    flags = ["--traced"] + (["--spans-out", spans_out] if spans_out else [])
    traced = run_worker(workload, seed, chunks, scale, *flags)
    errors = list(plain["errors"]) + list(traced["errors"])
    errors += [f"traced pass changed deterministic fact {name!r}"
               for name in metrics.det_mismatches(plain, traced)]
    return {
        "facts": plain,
        "values": metrics.per_layer(plain, traced),
        "spans": traced["spans"]["by_name"],
        "tracer": traced["tracer"],
        "errors": errors,
    }


def with_units(values: dict[str, float],
                specs: list[dict[str, Any]]) -> dict[str, Any]:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def _print_metrics(workload: str, found: dict[str, Any]) -> None:
    for name, cell in found.items():
        print(f"{workload:16s} {name:42s} {cell['value']:>16.6g} "
              f"{cell['unit']}")


def run_contract(args: argparse.Namespace) -> int:
    bench = _load_benchmark_json()
    if args.trace:
        got = measure_per_layer(args.workload, args.seed, args.seconds,
                                args.scale)
        found = with_units(got["values"], bench["per_layer"])
    else:
        got = measure_end_to_end(args.workload, args.seed, args.seconds,
                                 args.scale)
        found = with_units(got["values"], bench["end_to_end"])
    _print_metrics(args.workload, found)
    for error in got["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": not got["errors"],
                      "attempted": got["facts"]["ops"],
                      "failed": got["facts"]["failed"],
                      "metrics": found}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, both kinds of pass, one result file."""
    from bench.client import fingerprint
    from bench.workloads import FLUSH_POLICY
    bench = _load_benchmark_json()
    result: dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "flush_policy": FLUSH_POLICY,
        "environment": fingerprint(ROOT), "workloads": {}}
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        # absolute: the worker runs with the repo root as its directory
        spans_out = (os.path.abspath(f"{args.out}.{name}.trace.jsonl")
                     if args.out else None)
        e2e = measure_end_to_end(name, args.seed, args.seconds, args.scale)
        layer = measure_per_layer(name, args.seed, args.seconds, args.scale,
                                  spans_out)
        errors = e2e["errors"] + layer["errors"]
        ok = ok and not errors
        facts = e2e["facts"]
        cell = {
            "config": facts["config"], "correct": not errors,
            "errors": errors, "attempted": facts["ops"],
            "failed": facts["failed"], "aborts": facts["aborts"],
            "end_to_end": with_units(e2e["values"], bench["end_to_end"]),
            "spread": e2e["spread"],
            "uncalibrated": e2e["uncalibrated"],
            "per_layer": with_units(layer["values"], bench["per_layer"]),
            "per_layer_ops": layer["facts"]["ops"],
            # the ledger's counters again, over the full-length pass
            "full_pass": {"counters": facts["counters"],
                          "gauges": facts["gauges"]},
            "spans": layer["spans"], "tracer": layer["tracer"],
        }
        result["workloads"][name] = cell
        _print_metrics(name, cell["end_to_end"])
        _print_metrics(name, cell["per_layer"])
        for error in errors:
            print(f"CHECK FAILED [{name}]: {error}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload and print "
                        "the result line BENCHMARK.json's contract asks for")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=None,
                        help="sizes the fixed op count (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="all workloads: write results here, "
                        "and each traced pass's spans next to it as "
                        "<out>.<workload>.trace.jsonl")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data and chunk sizes (smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _load_benchmark_json()["run_seconds"]
    if args.workload:
        return run_contract(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
