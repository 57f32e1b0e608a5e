"""reprolint command line.

Usage::

    PYTHONPATH=src python -m tools.reprolint src/repro --strict
    python -m tools.reprolint src/repro --format json
    python -m tools.reprolint --list-rules

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .engine import Finding, Linter, Project, Rule
from .rules import ALL_RULES, rule_by_id


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="AST-based engine-invariant checker for the MV-PBT "
                    "repro (per-file rules R1-R7 + whole-program "
                    "concurrency rules R9-R11 + dead-surface rule R12 + "
                    "tombstones rule R13; see DESIGN.md §12/§17)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint")
    parser.add_argument("--strict", action="store_true",
                        help="also reject suppressions without a "
                             "justification")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--select", default="",
                        help="comma-separated rule ids/slugs to run "
                             "(default: all)")
    parser.add_argument("--ignore", default="",
                        help="comma-separated rule ids/slugs to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


class _UsageError(Exception):
    """A bad invocation: reported on stderr, exit code 2."""


def _resolve_rules(select: str, ignore: str) -> list[Rule]:
    chosen: list[type[Rule]]
    if select:
        try:
            chosen = [rule_by_id(token) for token in select.split(",")]
        except KeyError as exc:
            # reprolint: disable-next=R5 -- CLI usage error mapped to exit code 2, not library surface
            raise _UsageError(f"reprolint: unknown rule {exc.args[0]!r}")
    else:
        chosen = list(ALL_RULES)
    if ignore:
        try:
            dropped = {rule_by_id(token) for token in ignore.split(",")}
        except KeyError as exc:
            # reprolint: disable-next=R5 -- CLI usage error mapped to exit code 2, not library surface
            raise _UsageError(f"reprolint: unknown rule {exc.args[0]!r}")
        chosen = [rule for rule in chosen if rule not in dropped]
    return [rule() for rule in chosen]


def _project_for(paths: Sequence[Path]) -> Project:
    for path in paths:
        root = path if path.is_dir() else path.parent
        if root.exists():
            return Project.load(root)
    return Project()


def _emit_text(findings: list[Finding], linter: Linter) -> None:
    for finding in findings:
        print(finding.format())
    tail = (f"{len(findings)} finding(s) in {linter.files_checked} "
            f"file(s); {linter.suppressed_count} suppressed")
    print(("" if not findings else "\n") + tail)


def _emit_json(findings: list[Finding], linter: Linter) -> None:
    print(json.dumps({
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "files_checked": linter.files_checked,
            "findings": len(findings),
            "suppressed": linter.suppressed_count,
        },
    }, indent=2, sort_keys=True))


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.name:18s} {rule.description}")
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        print(f"reprolint: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2

    try:
        rules = _resolve_rules(args.select, args.ignore)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not rules:
        print("reprolint: no rules selected (--select and --ignore "
              "cancel out)", file=sys.stderr)
        return 2
    linter = Linter(rules, _project_for(args.paths), strict=args.strict)
    findings = linter.lint_paths(args.paths)

    if args.format == "json":
        _emit_json(findings, linter)
    else:
        _emit_text(findings, linter)
    return 1 if findings else 0


if __name__ == "__main__":       # pragma: no cover - exercised via __main__
    sys.exit(main())
