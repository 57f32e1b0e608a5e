"""reprolint core: findings, file context, suppressions, and the linter.

The engine is deliberately self-contained (stdlib ``ast`` + ``tokenize``
only) so the invariant gate runs in any environment the tests run in —
no third-party analyzer needed for the repo-specific rules.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Iterable, Iterator

#: pragma grammar: ``disable=R1,R2 -- justification`` (same line) or
#: ``disable-next=R1 -- justification`` (next line), after a
#: ``reprolint:`` comment marker
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-next)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s-]+?)\s*(?:--\s*(?P<why>.+?)\s*)?$")

#: fallback ReproError hierarchy, used when no ``errors.py`` is in the scan
#: (fixture snippets); the real run parses the hierarchy from source so new
#: subclasses are picked up automatically
_DEFAULT_ERRORS = frozenset({
    "ReproError", "ConfigError", "StorageError", "PageOverflowError",
    "PageNotFoundError", "SlotNotFoundError", "DeviceError",
    "DeviceCrashError", "RecoveryError", "BufferError_", "KeyCodecError",
    "TransactionError", "TransactionStateError", "WriteConflictError",
    "TableError", "TupleNotFoundError", "IndexError_",
    "UniqueViolationError", "CatalogError", "WorkloadError",
})

#: fallback RecordType members (paper §3.2/§4.1)
_DEFAULT_RECORD_TYPES = (
    "REGULAR", "REPLACEMENT", "ANTI", "TOMBSTONE", "REGULAR_SET")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str        #: rule id, e.g. ``"R1"`` (``"S1"`` for pragma hygiene)
    name: str        #: rule slug, e.g. ``"determinism"``
    path: str        #: file the finding is in
    line: int        #: 1-based line
    col: int         #: 0-based column
    message: str     #: what is wrong
    hint: str = ""   #: how to fix it

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"[{self.name}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule, "name": self.name, "path": self.path,
            "line": self.line, "col": self.col, "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# reprolint: disable[...]`` pragma."""

    effective_line: int        #: line whose findings it suppresses
    comment_line: int          #: line the pragma itself is on
    rules: tuple[str, ...]     #: normalised rule tokens (ids/slugs/"all")
    justification: str         #: text after ``--`` (may be empty)

    def covers(self, finding: Finding) -> bool:
        if finding.line != self.effective_line:
            return False
        for token in self.rules:
            if token == "all" or token == finding.rule.lower() \
                    or token == finding.name.lower():
                return True
        return False


class Project:
    """Cross-file knowledge the rules share: the ``ReproError`` hierarchy
    and the ``RecordType`` member list, parsed from the scanned tree."""

    def __init__(self, *, repro_errors: frozenset[str] = _DEFAULT_ERRORS,
                 record_types: tuple[str, ...] = _DEFAULT_RECORD_TYPES
                 ) -> None:
        self.repro_errors = repro_errors
        self.record_types = record_types

    @classmethod
    def load(cls, root: Path) -> "Project":
        """Parse project knowledge from a source root (best effort: any
        piece that cannot be found falls back to the built-in default)."""
        errors = cls._load_errors(root)
        record_types = cls._load_record_types(root)
        return cls(repro_errors=errors or _DEFAULT_ERRORS,
                   record_types=record_types or _DEFAULT_RECORD_TYPES)

    @staticmethod
    def _parse(path: Path) -> ast.Module | None:
        try:
            return ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return None

    @classmethod
    def _load_errors(cls, root: Path) -> frozenset[str] | None:
        for path in sorted(root.rglob("errors.py"),
                           key=lambda p: len(p.parts)):
            tree = cls._parse(path)
            if tree is None:
                continue
            bases: dict[str, list[str]] = {}
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    bases[node.name] = [b.id for b in node.bases
                                        if isinstance(b, ast.Name)]
            if "ReproError" not in bases:
                continue
            known = {"ReproError"}
            grew = True
            while grew:
                grew = False
                for name, parents in bases.items():
                    if name not in known and any(p in known for p in parents):
                        known.add(name)
                        grew = True
            return frozenset(known)
        return None

    @classmethod
    def _load_record_types(cls, root: Path) -> tuple[str, ...] | None:
        for path in sorted(root.rglob("records.py"),
                           key=lambda p: len(p.parts)):
            tree = cls._parse(path)
            if tree is None:
                continue
            for node in tree.body:
                if isinstance(node, ast.ClassDef) \
                        and node.name == "RecordType":
                    members = [stmt.targets[0].id for stmt in node.body
                               if isinstance(stmt, ast.Assign)
                               and len(stmt.targets) == 1
                               and isinstance(stmt.targets[0], ast.Name)]
                    if members:
                        return tuple(members)
        return None


class FileContext:
    """Everything a rule needs about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 project: Project) -> None:
        self.path = path
        #: posix-normalised path, what the module-scoping helpers match on
        self.posix_path = path.replace("\\", "/")
        self.source = source
        self.tree = tree
        self.project = project
        #: local alias -> fully qualified imported name
        #: (``import os`` -> {"os": "os"}; ``from time import time as t``
        #: -> {"t": "time.time"})
        self.imports: dict[str, str] = {}
        self._collect_imports()

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = (alias.name if alias.asname
                                           else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.level:      # relative import: stays project-internal
                    continue
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{module}.{alias.name}"

    def qualname(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted name, translating the
        root through this file's imports.  ``None`` for non-name shapes."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def in_module(self, *suffixes: str) -> bool:
        """Does this file's path end with any of the given posix suffixes?"""
        return any(self.posix_path.endswith(suffix) for suffix in suffixes)


class Rule:
    """Base class: one invariant, one visitor pass, zero or more findings."""

    id: str = ""
    name: str = ""
    description: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                hint: str | None = None) -> Finding:
        return Finding(rule=self.id, name=self.name, path=ctx.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message,
                       hint=self.hint if hint is None else hint)


class ProgramRule(Rule):
    """A whole-program rule: sees every file of the run at once.

    Per-file rules (:class:`Rule`) get one :class:`FileContext`; program
    rules run *after* the per-file pass over the full list of parsed
    contexts, so they can build cross-module structures — the call graph,
    lock summaries — and report findings anywhere in the tree.  The
    ``shared`` mapping is one dict per lint run: rules stash expensive
    artifacts there (``shared["program"]`` holds the call-graph model) so
    three rules don't build the same fixpoint three times.

    Findings are attributed to real (path, line) locations and respond to
    the same suppression pragmas as per-file findings.
    """

    def check(self, ctx: FileContext) -> list[Finding]:
        return []

    def check_program(self, files: list[FileContext],
                      shared: dict[str, object]) -> list[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, node: ast.AST, message: str,
                   hint: str | None = None) -> Finding:
        return Finding(rule=self.id, name=self.name, path=path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message,
                       hint=self.hint if hint is None else hint)


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract ``# reprolint: disable[...]`` pragmas via the tokenizer (so
    strings that merely *contain* pragma-looking text are never matched)."""
    suppressions: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except tokenize.TokenError:
        return suppressions
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        effective = line + 1 if match.group("kind") == "disable-next" else line
        rules = tuple(part.strip().lower()
                      for part in match.group("rules").split(",")
                      if part.strip())
        suppressions.append(Suppression(
            effective_line=effective, comment_line=line, rules=rules,
            justification=(match.group("why") or "").strip()))
    return suppressions


class _FileState:
    """Per-file bookkeeping the program pass and S2 staleness need."""

    __slots__ = ("ctx", "suppressions", "used")

    def __init__(self, ctx: FileContext,
                 suppressions: list[Suppression]) -> None:
        self.ctx = ctx
        self.suppressions = suppressions
        #: indices of suppressions that covered at least one raw finding
        self.used: set[int] = set()


class Linter:
    """Run a rule set over files/sources; apply suppressions; count both.

    Per-file rules run one file at a time; :class:`ProgramRule` instances
    run once over the whole file set at the end of :meth:`lint_paths`.
    Under ``--strict`` a suppression pragma that covered no finding in the
    entire run (per-file *and* program rules) is itself reported as stale
    (S2) — provided every rule it names was enabled in the run, so a
    ``--select``/``--ignore`` subset never misreports staleness.
    """

    def __init__(self, rules: Iterable[Rule], project: Project | None = None,
                 *, strict: bool = False) -> None:
        self.rules = [r for r in rules if not isinstance(r, ProgramRule)]
        self.program_rules = [r for r in rules
                              if isinstance(r, ProgramRule)]
        self.project = project if project is not None else Project()
        self.strict = strict
        self.files_checked = 0
        self.suppressed_count = 0
        self._known_tokens = {"all"}
        for rule in self.rules + list(self.program_rules):
            self._known_tokens.add(rule.id.lower())
            self._known_tokens.add(rule.name.lower())

    # ------------------------------------------------------------------ API

    def lint_source(self, source: str, path: str = "<source>"
                    ) -> list[Finding]:
        """Lint one in-memory source with the per-file rules only.

        Program rules need the whole file set and run in
        :meth:`lint_paths`; staleness (S2) here is judged against the
        per-file rule set alone.
        """
        findings, state = self._lint_collect(source, path)
        if state is not None:
            enabled = self._enabled_tokens(include_program=False)
            findings.extend(self._stale_pragmas(state, enabled))
        findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return findings

    def lint_file(self, path: Path) -> list[Finding]:
        self.files_checked += 1
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            return [Finding(rule="E0", name="io", path=str(path), line=1,
                            col=0, message=f"cannot read file: {exc}")]
        return self.lint_source(source, str(path))

    def lint_paths(self, paths: Iterable[Path]) -> list[Finding]:
        findings: list[Finding] = []
        states: list[_FileState] = []
        for path in paths:
            for file in sorted(iter_python_files(path)):
                self.files_checked += 1
                try:
                    source = file.read_text(encoding="utf-8")
                except OSError as exc:
                    findings.append(Finding(
                        rule="E0", name="io", path=str(file), line=1,
                        col=0, message=f"cannot read file: {exc}"))
                    continue
                file_findings, state = self._lint_collect(source, str(file))
                findings.extend(file_findings)
                if state is not None:
                    states.append(state)
        findings.extend(self._program_pass(states))
        enabled = self._enabled_tokens(include_program=True)
        for state in states:
            findings.extend(self._stale_pragmas(state, enabled))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    # ------------------------------------------------------------- internal

    def _lint_collect(self, source: str, path: str
                      ) -> tuple[list[Finding], _FileState | None]:
        """Per-file rules + suppression application; no S2 judgement yet
        (a program rule may still use a pragma the per-file pass didn't)."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [Finding(rule="E0", name="syntax", path=path,
                            line=exc.lineno or 1, col=exc.offset or 0,
                            message=f"cannot parse file: {exc.msg}")], None
        ctx = FileContext(path, source, tree, self.project)
        state = _FileState(ctx, parse_suppressions(source))
        raw: list[Finding] = []
        for rule in self.rules:
            raw.extend(rule.check(ctx))
        findings = []
        for finding in raw:
            if self._apply_suppressions(state, finding):
                continue
            findings.append(finding)
        findings.extend(self._pragma_hygiene(path, state.suppressions))
        return findings, state

    def _program_pass(self, states: list[_FileState]) -> list[Finding]:
        if not self.program_rules or not states:
            return []
        files = [state.ctx for state in states]
        by_path = {state.ctx.path: state for state in states}
        shared: dict[str, object] = {}
        findings: list[Finding] = []
        for rule in self.program_rules:
            for finding in rule.check_program(files, shared):
                state = by_path.get(finding.path)
                if state is not None \
                        and self._apply_suppressions(state, finding):
                    continue
                findings.append(finding)
        return findings

    def _apply_suppressions(self, state: _FileState,
                            finding: Finding) -> bool:
        """Mark every covering suppression used; True when suppressed."""
        covered = False
        for index, sup in enumerate(state.suppressions):
            if sup.covers(finding):
                state.used.add(index)
                covered = True
        if covered:
            self.suppressed_count += 1
        return covered

    def _enabled_tokens(self, *, include_program: bool) -> set[str]:
        rules: list[Rule] = list(self.rules)
        if include_program:
            rules.extend(self.program_rules)
        enabled: set[str] = set()
        for rule in rules:
            enabled.add(rule.id.lower())
            enabled.add(rule.name.lower())
        return enabled

    def _stale_pragmas(self, state: _FileState,
                       enabled: set[str]) -> list[Finding]:
        """S2 findings: a pragma that suppressed nothing is stale.

        Only judged under ``--strict``, and only when every rule the
        pragma names ran (an ``all`` pragma or one naming a deselected
        rule cannot be judged and is skipped)."""
        if not self.strict:
            return []
        findings: list[Finding] = []
        for index, sup in enumerate(state.suppressions):
            if index in state.used:
                continue
            if any(token == "all" or token not in enabled
                   for token in sup.rules):
                continue
            findings.append(Finding(
                rule="S2", name="stale-pragma", path=state.ctx.path,
                line=sup.comment_line, col=0,
                message=f"suppression for "
                        f"{', '.join(sup.rules)} matches no finding — "
                        f"the pragma is stale",
                hint="delete the pragma (the code it excused is gone or "
                     "now clean)"))
        return findings

    def _pragma_hygiene(self, path: str,
                        suppressions: list[Suppression]) -> list[Finding]:
        """S1 findings: unknown rule tokens always; missing justification
        only under ``--strict`` (the repo convention requires one)."""
        findings: list[Finding] = []
        for sup in suppressions:
            unknown = [t for t in sup.rules if t not in self._known_tokens]
            if unknown:
                findings.append(Finding(
                    rule="S1", name="pragma", path=path,
                    line=sup.comment_line, col=0,
                    message=f"suppression names unknown rule(s): "
                            f"{', '.join(unknown)}",
                    hint="use a rule id (R1..) or slug from --list-rules"))
            if self.strict and not sup.justification:
                findings.append(Finding(
                    rule="S1", name="pragma", path=path,
                    line=sup.comment_line, col=0,
                    message="suppression has no justification",
                    hint="append ' -- <one-line reason>' to the pragma"))
        return findings


def package_root(path: Path) -> Path | None:
    """The ``repro`` package directory ``path`` lies in, if any."""
    parts = path.parts
    if "repro" not in parts[:-1]:
        return None
    return Path(*parts[:parts.index("repro") + 1])


def checkout_root(package: Path) -> Path:
    """The checkout that holds ``package``: the parent of its ``src``
    directory, or the directory it lies in when there is no ``src``."""
    src = package.parent
    return src.parent if src.name == "src" else src


def iter_python_files(path: Path) -> Iterator[Path]:
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for file in path.rglob("*.py"):
        if "__pycache__" not in file.parts:
            yield file
