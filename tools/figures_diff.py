"""Compare the figures' ``extra_info`` values between two commits.

Each module under ``benchmarks/`` records the numbers its figure reports
as pytest-benchmark ``extra_info``; they repeat exactly for one commit,
so two commits' ``--benchmark-json`` files compare digit for digit::

    python -m tools.figures_diff BASE.json HEAD.json [--out diff.md]

Prints a Markdown report of every value that differs or exists on one
side only, and exits 1 when there is one (0 when every value is equal).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any


def extra_info(path: Path) -> dict[tuple[str, str], Any]:
    """``(benchmark, key) -> value`` over one benchmark JSON file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return {(bench["fullname"], key): value
            for bench in data["benchmarks"]
            for key, value in bench.get("extra_info", {}).items()}


def report(base: dict[tuple[str, str], Any],
           head: dict[tuple[str, str], Any]) -> tuple[str, int]:
    """The Markdown report and the number of differing values."""
    missing = object()
    rows = [(name, key, base.get((name, key), missing),
             head.get((name, key), missing))
            for name, key in sorted(base.keys() | head.keys())]
    changed = [row for row in rows if row[2] != row[3]]
    lines = [f"## Figures: {len(changed)} of {len(rows)} extra_info "
             f"values differ from the base commit", ""]
    if changed:
        lines += ["| figure | value | base | head |", "|---|---|---|---|"]
        lines += [f"| `{name}` | `{key}` | "
                  f"{'—' if old is missing else old} | "
                  f"{'—' if new is missing else new} |"
                  for name, key, old, new in changed]
    return "\n".join(lines) + "\n", len(changed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--out", type=Path,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    text, changed = report(extra_info(args.base), extra_info(args.head))
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
