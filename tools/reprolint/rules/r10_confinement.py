"""R10 — engine-state slot confinement, verified interprocedurally.

The serve layer's concurrency argument (DESIGN.md §15) is that the
single-caller engine — ``Database`` / ``ShardedDatabase`` / the
``DurabilityController`` WAL path — is only ever driven while holding
the ``FairScheduler`` engine slot.  R8 approximates this at the import
level (no ``threading`` outside the allowlist); this rule supersedes
that heuristic inside ``repro/serve/`` by checking *accesses*:

* a **call** through an engine root (``self._db.…(…)``,
  ``router.shards[k].…(…)``) outside the slot;
* a **store** into engine state outside the slot;
* a **deep read** (attribute depth ≥ 2 below a root, e.g.
  ``self.db.durability.wal.appends``) outside the slot — depth-1 reads
  (``db.txn``, ``db.obs``) are immutable component bindings and allowed,
  anything deeper is reaching into unlocked engine internals.

Engine roots are found by type inference (attributes/params/locals whose
inferred class is an engine type, including through ``list[Database]``
shard vectors), by the documented root names (``db``/``_db``/
``router``/``_router``), and by explicit ``# reprolint:
confined=engine`` attribute annotations where inference needs help.

Confinement is *inherited interprocedurally*: a helper whose every
resolved in-program call site holds the slot (directly or via another
confined caller) is analyzed as slot-held, so private ``_rows_for``-style
helpers don't need pragmas.  Entry points (no in-program callers) are
never assumed confined.
"""

from __future__ import annotations

import ast

from ..callgraph import FunctionInfo, Program
from ..engine import FileContext, Finding, ProgramRule
from ..summaries import HeldWalker, LockModel, LockRef, _is_mechanism

#: classes whose instances are single-caller engine state
_ENGINE_TYPES = frozenset({"Database", "ShardedDatabase",
                           "DurabilityController"})

#: attribute/parameter names documented as engine handles (backstop for
#: spots the type inference cannot reach)
_ROOT_NAMES = frozenset({"db", "_db", "router", "_router"})


def _in_serve_scope(posix_path: str) -> bool:
    return "repro/serve/" in posix_path and not _is_mechanism(posix_path)


class SlotConfinementRule(ProgramRule):
    id = "R10"
    name = "slot-confinement"
    description = ("engine state (Database/ShardedDatabase/WAL controller) "
                   "reachable from repro/serve/ must be accessed under the "
                   "FairScheduler engine slot: calls, stores, and deep "
                   "attribute reads outside the slot are confinement "
                   "escapes (DESIGN.md §17)")
    hint = ("wrap the access in 'with <scheduler>.slot(...)', or justify "
            "the escape with '# reprolint: disable-next=R10 -- ...' if "
            "the access is provably benign")

    def check_program(self, files: list[FileContext],
                      shared: dict[str, object]) -> list[Finding]:
        program = Program.of(files, shared)
        locks = LockModel.of(program, shared)
        confined = self._confined_functions(program, locks)
        findings: list[Finding] = []
        for fn in program.functions:
            if not _in_serve_scope(fn.ctx.posix_path):
                continue
            walker = _ConfinementWalker(self, program, locks, fn,
                                        fn.qualname in confined)
            walker.run()
            findings.extend(walker.findings)
        return findings

    def _confined_functions(self, program: Program,
                            locks: LockModel) -> set[str]:
        """Greatest fixpoint of "every resolved call site holds the slot"."""
        sites: dict[str, list[tuple[str, bool]]] = {}
        slot_key = locks.engine_slot.key
        for fn in program.functions:
            if _is_mechanism(fn.ctx.posix_path):
                continue

            def on_call(callee: FunctionInfo, call: ast.Call,
                        held: list[LockRef],
                        _caller: str = fn.qualname) -> None:
                in_slot = any(ref.key == slot_key for ref in held)
                sites.setdefault(callee.qualname, []).append(
                    (_caller, in_slot))

            HeldWalker(program, locks, fn, on_call=on_call).run()
        confined = {name for name, callers in sites.items() if callers}
        changed = True
        while changed:
            changed = False
            for name in list(confined):
                if not all(in_slot or caller in confined
                           for caller, in_slot in sites[name]):
                    confined.discard(name)
                    changed = True
        return confined


class _ConfinementWalker:
    """Lexical walk of one serve-layer function flagging out-of-slot
    engine accesses; tracks the slot flag, a local type env, and the
    rooted-depth of local aliases."""

    def __init__(self, rule: SlotConfinementRule, program: Program,
                 locks: LockModel, fn: FunctionInfo,
                 base_in_slot: bool) -> None:
        self.rule = rule
        self.program = program
        self.locks = locks
        self.fn = fn
        self.base_in_slot = base_in_slot
        self.env = dict(fn.param_types)
        self.rooted: dict[str, int] = {
            name: 0 for name, hint in fn.param_types.items()
            if self._engine_type(hint)}
        self.findings: list[Finding] = []

    def run(self) -> None:
        self._stmts(self.fn.node.body, self.base_in_slot)

    @staticmethod
    def _engine_type(hint: str | None) -> bool:
        if hint is None:
            return False
        if hint.startswith("list[") and hint.endswith("]"):
            hint = hint[5:-1]
        return hint in _ENGINE_TYPES

    # --------------------------------------------------------------- depth

    def _rooted_depth(self, expr: ast.expr) -> int | None:
        """0 for an engine handle, n for an access n attributes below
        one, ``None`` for expressions not reaching engine state."""
        if isinstance(expr, ast.Name):
            if expr.id in self.rooted:
                return self.rooted[expr.id]
            if self._engine_type(self.env.get(expr.id)):
                return 0
            return None
        if isinstance(expr, ast.Attribute):
            if self._engine_type(self.program.infer_type(
                    expr, self.fn, self.env)):
                return 0
            if isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self" and self.fn.cls is not None:
                if expr.attr in _ROOT_NAMES \
                        or self._confined_attr(expr.attr):
                    return 0
            below = self._rooted_depth(expr.value)
            return None if below is None else below + 1
        if isinstance(expr, ast.Subscript):
            return self._rooted_depth(expr.value)
        return None

    def _confined_attr(self, attr: str) -> bool:
        owner = self.fn.cls.name if self.fn.cls is not None else None
        return any((name, attr) in self.locks.confined_attrs
                   for name in self.program.lineage(owner))

    # ---------------------------------------------------------- statements

    def _stmts(self, body: list[ast.stmt], in_slot: bool) -> None:
        for stmt in body:
            self._stmt(stmt, in_slot)

    def _stmt(self, stmt: ast.stmt, in_slot: bool) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered = in_slot
            for item in stmt.items:
                for ref in self.locks.acquisitions(
                        item.context_expr, self.fn, self.env):
                    if ref.key == self.locks.engine_slot.key:
                        entered = True
                self._expr(item.context_expr, in_slot)
            self._stmts(stmt.body, entered)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._stmts(stmt.body, False)   # runs later, slot not implied
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value, in_slot)
            for target in stmt.targets:
                self._store(target, in_slot)
            if len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                self._bind(stmt.targets[0].id, stmt.value)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                self._expr(stmt.value, in_slot)
            self._store(stmt.target, in_slot)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body, in_slot)
            for handler in stmt.handlers:
                self._stmts(handler.body, in_slot)
            self._stmts(stmt.orelse, in_slot)
            self._stmts(stmt.finalbody, in_slot)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test, in_slot)
            self._stmts(stmt.body, in_slot)
            self._stmts(stmt.orelse, in_slot)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, in_slot)
            self._stmts(stmt.body, in_slot)
            self._stmts(stmt.orelse, in_slot)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, in_slot)

    def _bind(self, name: str, value: ast.expr) -> None:
        hint = self.program.infer_type(value, self.fn, self.env)
        if hint is not None:
            self.env[name] = hint
        depth = self._rooted_depth(value)
        if depth is not None:
            self.rooted[name] = depth
        elif name in self.rooted:
            del self.rooted[name]

    def _store(self, target: ast.expr, in_slot: bool) -> None:
        if in_slot:
            return
        base: ast.expr | None = None
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            base = target.value
        if base is not None and self._rooted_depth(base) is not None:
            self.findings.append(self.rule.finding_at(
                self.fn.ctx.path, target,
                f"{self.fn.qualname} writes to engine state outside the "
                f"engine slot"))

    # --------------------------------------------------------- expressions

    def _expr(self, expr: ast.expr, in_slot: bool) -> None:
        if isinstance(expr, ast.Lambda):
            return
        if isinstance(expr, ast.Call):
            func = expr.func
            if not in_slot and isinstance(func, ast.Attribute) \
                    and self._rooted_depth(func.value) is not None:
                self.findings.append(self.rule.finding_at(
                    self.fn.ctx.path, expr,
                    f"{self.fn.qualname} calls {func.attr}() through "
                    f"engine state outside the engine slot"))
            else:
                self._expr(func, in_slot)
            for arg in expr.args:
                self._expr(arg, in_slot)
            for kw in expr.keywords:
                self._expr(kw.value, in_slot)
            return
        if isinstance(expr, ast.Attribute):
            depth = self._rooted_depth(expr)
            if not in_slot and depth is not None and depth >= 2:
                self.findings.append(self.rule.finding_at(
                    self.fn.ctx.path, expr,
                    f"{self.fn.qualname} reads engine-internal state "
                    f"({expr.attr!r}, {depth} levels below the engine "
                    f"root) outside the engine slot"))
                return
            self._expr(expr.value, in_slot)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child, in_slot)
