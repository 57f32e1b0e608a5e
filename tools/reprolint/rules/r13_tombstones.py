"""R13 — tombstones: what a PR deleted stays deleted.

A simplification only holds while nobody brings the deleted thing back:
a second scan path, a retry loop copied into a new layer, an option that
nothing reads.  Each :class:`Tombstone` below names one such decision by
a regular expression, the paths of the checkout it covers, and a budget
on the lines that may match it.  Most budgets are zero (the name is
gone); a few pin a count (exactly one busy guard, exactly two places
that pull index slices) or cap one (at most four R10 waivers).

Like R12, the rule runs once per checkout, when the linted files include
the ``repro`` package.  It walks each scope from the checkout root,
skipping dot-directories and ``__pycache__``, and counts matching
*lines*.  An empty file counts as one empty line, so an entry whose
pattern is ``^`` says that a file must not exist.  A line over budget is
reported where it is; a count under budget is reported at its entry in
this table.  Either way the message names the PR that made the decision
and why.

This file lies outside every scope but ``.``'s, and that entry's pattern
cannot match its own spelling (the ``[s]`` keeps it from doing so).  Keep
it that way: an entry must not match the table, nor may a test spell a
name whose scope covers ``tests/``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..engine import (FileContext, Finding, ProgramRule, checkout_root,
                      package_root)


@dataclass(frozen=True)
class Tombstone:
    """One deleted name, or one count that may not drift."""

    regex: str                      #: ``re`` pattern, searched line by line
    scope: tuple[str, ...]          #: paths from the checkout root
    pr: int                         #: the PR that made the decision
    reason: str                     #: the decision, in one line
    exclude: tuple[str, ...] = ()   #: paths inside the scope that may match
    at_least: int = 0               #: fewest matching lines allowed
    at_most: int = 0                #: most matching lines allowed


_SRC_TESTS = ("src", "tests")
_USER_FACING = ("src", "tests", "README.md", "examples", "benchmarks")
_PINNED_OPTIONS = ("tests/unit/test_config.py",)

TOMBSTONES: tuple[Tombstone, ...] = (
    Tombstone(
        r"run_all\.py|perf_[s]moke|BENCH_PR[0-9]+", (".",), 16,
        "bench/ is the one benchmark harness; the harness and per-PR "
        "result files it superseded stay gone",
        exclude=("bench", "CHANGES.md", "ROADMAP.md")),
    Tombstone(
        r"batch_scan *=", ("src",), 16,
        "one scan path: nothing sets or passes a batch_scan option"),
    Tombstone(
        r"class _BusyGuard", ("src",), 19,
        "one busy guard, in the serving core",
        at_least=1, at_most=1),
    Tombstone(
        r"ordering_checks|leaf_fill_factor|prefix_bloom_fpr", _SRC_TESTS,
        19, "options that nothing read stay deleted"),
    Tombstone(
        r"class _Run", ("src",), 21,
        "one sliced-scan state machine, in the session core",
        at_least=1, at_most=1),
    Tombstone(
        r"def _take_below", ("src",), 21,
        "one sliced-scan state machine, in the session core",
        at_least=1, at_most=1),
    Tombstone(
        r"\.scan_limit\(|\.mvpbt\b|catalog\.|_fetch_hits",
        ("src/repro/serve",), 21,
        "serve speaks only the engine's statement surface: no tree, "
        "catalog or executor internals"),
    Tombstone(
        r"_candidates_point|_candidates_range|_raw_hits"
        r"|if not self\.index_only_visibility", ("src/repro/core",), 23,
        "the version-oblivious ablation is a visibility checker, not a "
        "second partition walk"),
    Tombstone(
        r"def reset_stats", ("src",), 24,
        "no pool count goes backwards"),
    Tombstone(
        r"\bbloom_fpr\b", _SRC_TESTS, 24,
        "the bloom filter's false-positive rate is a constant"),
    Tombstone(
        r'registry\.(counter|gauge)\("(buffer\.pool\.|device\.'
        r'|txn\.(begin|commit|abort)\.count|mvpbt\.(search|scan\.count'
        r'|scan\.pages_|scan\.zero_copy|prune|evict\.count|merge\.count'
        r'|bulk_load|gc|partitions)|sim\.clock|wal\.(appends|entries'
        r'|bytes_appended|pad_bytes|pages_freed)|manifest\.flips'
        r'|shard\.(sim_now|coordinator\.active))', ("src/repro",), 24,
        "a fact the engine counts is read by the registry as a view, "
        "never counted again by an instrument under the view's name"),
    Tombstone(
        r"Threaded[G]ather|parallel_[s]catter_gather|serial_[g]ather"
        r"|Gathe[r]Fn|(self|router)\.gather\b|\bgroup_commit=[^{]"
        r"|config\.group_commit\b",
        ("src", "tests", "README.md", "examples"), 26,
        "the router reads its shards on the caller's thread (no gather "
        "hook), and group commit is not a switch",
        exclude=_PINNED_OPTIONS),
    Tombstone(
        r"disable-next=R10", ("src",), 26,
        "the serve layer's slot-confinement waivers do not grow",
        at_most=4),
    Tombstone(
        r"use_prefix_bloom|prefix_columns=",
        ("src", "tests", "benchmarks", "examples"), 28,
        "every composite index builds its prefix filter; the prefix "
        "follows from the key, not an option"),
    Tombstone(
        r"ClockPolicy|ReplacementPolicy|LRUPolicy|decided_watermark"
        r"|decision_is_stable|is_concurrent|is_decided",
        ("src", "tests", "benchmarks", "examples"), 29,
        "the pool is LRU with no policy object, and the commit log keeps "
        "no decided watermark"),
    Tombstone(
        r'cost: "?CostModel \| None', ("src/repro",), 29,
        "the CPU price list lives on the clock: no component takes a "
        "cost"),
    Tombstone(
        r"clock is not None", ("src/repro",), 29,
        "no charge path tests for a clock; the coordinator's two "
        "defaults are the only such tests",
        at_most=2),
    Tombstone(
        r"Range[P]artitioner|move_range|range_cuts|partitioning="
        r"|span-concatenation|_intersect\b|_is_routing_index"
        r"|partitioner_from_state|Null(Counter|Gauge|Histogram)"
        r"|NULL_(COUNTER|GAUGE|HISTOGRAM)|trace_capacity|metrics=False",
        _USER_FACING, 30,
        "shards are placed by hash slot only, and an enabled obs facade "
        "always records into a default-sized trace ring",
        exclude=_PINNED_OPTIONS),
    Tombstone(
        r"^", ("tools/reprolint/rules/r6_typing.py",), 30,
        "R6 is a retired rule id: mypy --strict checks annotations"),
    Tombstone(
        r"^", ("tools/reprolint/rules/r8_concurrency.py",), 30,
        "R8 is a retired rule id: R9's rank on every raw lock covers "
        "threading confinement"),
    Tombstone(
        r"\b(extra_committed|txid_floor|group_size_target"
        r"|group_window_s)\b", ("src", "tests", "README.md", "examples"),
        33,
        "recovery takes the durable state it restarts from (no sharding "
        "hooks), and group commit has no formation window",
        exclude=_PINNED_OPTIONS),
    Tombstone(
        r"engine.pull_index_slices\(", ("src/repro/serve",), 35,
        "serve pulls index slices in exactly two places: the ordered "
        "sliced scan and the unordered gather",
        at_least=2, at_most=2),
    Tombstone(
        r"batch_scan\(", ("src/repro/workloads",), 35,
        "no workload reads through batch_scan"),
    Tombstone(
        r"except WriteConflictError", ("src/repro",), 36,
        "one retry loop, SessionCore.run",
        at_most=1),
    Tombstone(
        r"ShardedBackend|_ShardedTxn|_sharded_scan_limit", _USER_FACING,
        37,
        "a workload reaches a router only through its server: no "
        "direct-router adapter or its private LIMIT merge"),
    Tombstone(
        r"\bpreallocate\b", _SRC_TESTS, 38,
        "manifest slots grow on demand: nothing reserves them up front"),
    Tombstone(
        r"\b(ServerBackend|_SessionTxn|QueryTxn|encode_leaf"
        r"|decode_leaf)\b", _USER_FACING, 40,
        "a single node is driven bare, and there is one leaf format"),
    Tombstone(
        r"isinstance\(.*\b(HeapTable|SIASTable|DeltaTable)\b",
        ("src/repro",), 44,
        "nothing outside table/ branches on a store class: the "
        "VersionStore interface owns every storage-layout decision",
        exclude=("src/repro/table",)),
    Tombstone(
        r"\bresolve_candidates_(heap|sias)\b|\b_resolve_logical\b"
        r"|\b_existing_chains\b|\b_backfill_indirection\b"
        r"|\bstorage_kind\b|\badopt_version\b|\ballocate_vid\b"
        r"|\.(entry_point|has_chain)\(",
        _USER_FACING, 44,
        "each version store resolves, lists and adopts its own chains: "
        "no per-store resolve function, chain walk or adoption step "
        "outside it"),
    Tombstone(
        r"\bis_mvpbt\b", ("src/repro/engine",), 45,
        "the engine writes, reads candidates and purges through one "
        "contract; only the catalog, recovery, stats and metrics sources "
        "tell the index kinds apart",
        at_most=5),
    Tombstone(
        r"ReferenceMode\.(PHYSICAL|LOGICAL)", ("src/repro/engine",), 45,
        "the reference mode is fixed once, in create_index; the index "
        "knows rid vs. VID from then on",
        at_most=1),
    Tombstone(
        r"\b_add_build_record\b|\b_candidates_(point|range)\b"
        r"|\.oblivious\b", _USER_FACING, 45,
        "an index build replays each chain step through the calls live "
        "maintenance makes, and every index kind answers the candidate "
        "reads itself: no second record rule, no executor branch, no "
        "catalog accessor that picks the oblivious kind"),
    Tombstone(
        r"\bvacuum_heap\b|\bvacuum_delta\b|\b_heap_version_dead\b",
        _USER_FACING, 46,
        "one vacuum rule decides which versions are dead, over every "
        "store's chains; a store only reclaims what it dropped"),
    Tombstone(
        r"\bIndirectionLayer\b|\btable\.indirection\b"
        r"|\b_check_updatable\b|\.repointed\b",
        _USER_FACING, 47,
        "one write rule, first updater wins, for every store, and each "
        "store's entry map is the table's one VID map: no per-store "
        "update check, no indirection layer the engine keeps in step"),
    Tombstone(
        r"\b(bloom_state|prefix_state|zone_state|restore_bloom"
        r"|restore_prefix_bloom)\b", _USER_FACING, 49,
        "a partition's filters live in its own filter block, written "
        "once beside its leaves: the manifest keeps only the block's "
        "page numbers, and recovery decodes no filter"),
    Tombstone(
        r"def settle\(|\.settle\(", _SRC_TESTS, 52,
        "the coordinator owns the cluster's one commit log and records "
        "each outcome there once: no shard copies the outcome of a "
        "transaction it never joined"),
    Tombstone(
        r"\b_next_txid\b", ("src",), 53,
        "one txid allocator, inside the one Horizon: a manager or "
        "coordinator draws its ids from a horizon",
        at_least=5, at_most=5),
    Tombstone(
        r"horizon is (not )?None|class Horizon\(Protocol\)", ("src",), 53,
        "the Horizon is one concrete class every manager holds: no "
        "single-node mode beside a shard mode"),
)


def _entry_lines() -> dict[Tombstone, int]:
    """Each entry's line in this file, where a count under budget is
    reported."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == "TOMBSTONES" \
                and isinstance(node.value, ast.Tuple):
            return {entry: call.lineno
                    for entry, call in zip(TOMBSTONES, node.value.elts)}
    return {}


_ENTRY_LINES = _entry_lines()


def _walk(top: Path) -> Iterator[Path]:
    if top.is_file():
        yield top
        return
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and d != "__pycache__")
        for filename in sorted(filenames):
            yield Path(dirpath, filename)


def _lines(path: Path) -> list[str]:
    """The file's lines as ``git grep`` counts them; an empty file is one
    empty line."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    lines = text.split("\n")
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()
    return lines


class TombstoneRule(ProgramRule):
    id = "R13"
    name = "tombstones"
    description = ("a deleted name stays deleted: each entry of "
                   "rules/r13_tombstones.py matches within its line "
                   "budget under its paths of the checkout")
    hint = ("the entry's PR decided this; a PR that reverses the "
            "decision edits the entry in "
            "tools/reprolint/rules/r13_tombstones.py")

    def check_program(self, files: list[FileContext],
                      shared: dict[str, object]) -> list[Finding]:
        roots = {checkout_root(pkg) for pkg in
                 (package_root(Path(ctx.path)) for ctx in files)
                 if pkg is not None}
        findings: list[Finding] = []
        for root in sorted(roots):
            cache: dict[Path, list[str]] = {}
            for entry in TOMBSTONES:
                findings.extend(self._check(root, entry, cache))
        return findings

    def _check(self, root: Path, entry: Tombstone,
               cache: dict[Path, list[str]]) -> list[Finding]:
        pattern = re.compile(entry.regex)
        hits: list[tuple[Path, int, int]] = []
        for scope in entry.scope:
            for path in _walk(root / scope):
                rel = path.relative_to(root).as_posix()
                if any(rel == ex or rel.startswith(ex + "/")
                       for ex in entry.exclude):
                    continue
                if path not in cache:
                    cache[path] = _lines(path)
                for number, line in enumerate(cache[path], 1):
                    match = pattern.search(line)
                    if match is not None:
                        hits.append((path, number, match.start()))
        why = f"PR {entry.pr}: {entry.reason}"
        where = f"/{entry.regex}/ under {', '.join(entry.scope)}"
        if len(hits) > entry.at_most:
            if entry.at_most:
                what = (f"{len(hits)} lines match {where}, at most "
                        f"{entry.at_most} allowed")
            else:
                what = f"matches {where}"
            return [Finding(rule=self.id, name=self.name, path=str(path),
                            line=number, col=col,
                            message=f"{what} ({why})", hint=self.hint)
                    for path, number, col in hits]
        if len(hits) < entry.at_least:
            return [Finding(
                rule=self.id, name=self.name, path=__file__,
                line=_ENTRY_LINES.get(entry, 1), col=0,
                message=f"{len(hits)} lines match {where}, at least "
                        f"{entry.at_least} required ({why})",
                hint=self.hint)]
        return []
