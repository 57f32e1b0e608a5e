"""Lock model + per-function lock summaries for the concurrency rules.

Three layers, each built once per lint run and cached in the run's
``shared`` mapping:

* :class:`LockModel` — every lock object in the program, with its rank.
  ``OrderedLock("name", RANK_X)`` constructions carry their rank
  syntactically; raw ``threading.Lock()``/``RLock()``/``Condition()``
  constructions must carry a machine-readable annotation on (or directly
  above) the construction line::

      # reprolint: lock-rank=TXN_MANAGER, reentrant
      self._lock = threading.RLock()

  ``lock-rank=LEAF`` marks a terminal lock: nothing may be acquired
  while it is held (modelled as a huge rank so any nested acquisition
  violates the ascending-rank check).  ``Condition(lock)`` and
  ``lock.condition()`` inherit the underlying lock's rank.  A raw lock
  with no annotation is itself an R9 finding.  The rank table is parsed
  from the scanned ``serve/locks.py`` (``RANK_* = <int>``), falling back
  to the documented §15.2 defaults for fixture trees.

* :class:`HeldWalker` — a lexical walk of one function tracking the
  with-statement held-lock stack, resolving calls through the
  :class:`~..callgraph.Program`, and reporting each acquisition / call
  with the locks held at that point.  ``note_acquired(RANK_X, "name")``
  sites count as acquisitions for *summaries* (they are how the
  scheduler publishes the engine slot) but do not push onto the lexical
  held stack — their extent is not lexical.

* :class:`SummaryTable` — per-function *may-acquire* sets propagated to
  a fixpoint over resolved call edges, so "calling ``f`` while holding
  rank 40" can be checked against everything ``f`` may transitively
  lock.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from io import StringIO
from typing import Callable

from .callgraph import FunctionInfo, Program

#: terminal rank: a LEAF lock must be the innermost acquisition
LEAF_RANK = 10 ** 9

#: §15.2 fallback table, used when the scan has no ``serve/locks.py``
_DEFAULT_RANKS = {
    "ENGINE": 10, "TXN_MANAGER": 20, "TXN_COMMITLOG": 30,
    "GROUP_QUEUE": 40, "LEAF": LEAF_RANK,
}

#: ``# reprolint: lock-rank=NAME[, reentrant]`` / ``# reprolint:
#: confined=engine`` — trailing on the construction line, or alone on
#: the line directly above it
_ANNOT_RE = re.compile(
    r"#\s*reprolint:\s*(?P<key>lock-rank|confined)\s*=\s*"
    r"(?P<value>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

_RAW_LOCK_QUALNAMES = {
    "threading.Lock": "Lock", "threading.RLock": "RLock",
    "threading.Condition": "Condition",
}


@dataclass(frozen=True)
class LockRef:
    """One lock (or the engine slot) with its documented rank."""

    key: str              #: identity for reentrancy/held-set matching
    label: str            #: human-readable name for diagnostics
    rank: int
    reentrant: bool = False

    def describe(self) -> str:
        rank = "LEAF" if self.rank >= LEAF_RANK else str(self.rank)
        return f"{self.label} (rank {rank})"


class Annotations:
    """``# reprolint: lock-rank=…`` / ``confined=…`` sites of one file,
    keyed by the source line they annotate."""

    def __init__(self, source: str) -> None:
        #: line -> {key: [values]}
        self.by_line: dict[int, dict[str, list[str]]] = {}
        try:
            tokens = list(tokenize.generate_tokens(
                StringIO(source).readline))
        except tokenize.TokenError:
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ANNOT_RE.search(tok.string)
            if match is None:
                continue
            standalone = not tok.line[:tok.start[1]].strip()
            line = tok.start[0] + 1 if standalone else tok.start[0]
            values = [part.strip() for part in
                      match.group("value").split(",") if part.strip()]
            self.by_line.setdefault(line, {})[match.group("key")] = values

    def lock_rank(self, line: int) -> tuple[str, bool] | None:
        """(rank name, reentrant) annotated at a line, else ``None``."""
        values = self.by_line.get(line, {}).get("lock-rank")
        if not values:
            return None
        name = values[0].upper()
        if name.startswith("RANK_"):
            name = name[5:]
        return name, "reentrant" in {v.lower() for v in values[1:]}

    def confined(self, line: int) -> str | None:
        values = self.by_line.get(line, {}).get("confined")
        return values[0].lower() if values else None


def _is_mechanism(posix_path: str) -> bool:
    """``serve/locks.py`` is the ranking mechanism itself — its internal
    raw mutex and thread-local bookkeeping are below the model."""
    return posix_path.endswith("serve/locks.py")


class LockModel:
    """Every ranked lock in the program, plus the unranked violations."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.ranks = self._rank_table(program)
        self.engine_slot = LockRef(
            key="serve.engine", label="serve.engine (scheduler slot)",
            rank=self.ranks.get("ENGINE", _DEFAULT_RANKS["ENGINE"]))
        #: (owner class name, attribute) -> lock
        self.attr_locks: dict[tuple[str, str], LockRef] = {}
        #: (function qualname, local name) -> lock
        self.local_locks: dict[tuple[str, str], LockRef] = {}
        #: raw lock constructions with no usable rank annotation
        self.unranked: list[tuple[str, ast.expr, str]] = []
        #: (owner class name, attribute) annotated ``confined=engine``
        self.confined_attrs: set[tuple[str, str]] = set()
        self._annotations: dict[str, Annotations] = {}
        self._collect()

    @staticmethod
    def of(program: Program, shared: dict[str, object]) -> "LockModel":
        model = shared.get("lock_model")
        if not isinstance(model, LockModel):
            model = LockModel(program)
            shared["lock_model"] = model
        return model

    @staticmethod
    def _rank_table(program: Program) -> dict[str, int]:
        table = dict(_DEFAULT_RANKS)
        for module in program.modules.values():
            if not _is_mechanism(module.ctx.posix_path):
                continue
            for node in module.ctx.tree.body:
                if isinstance(node, ast.Assign) \
                        and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and node.targets[0].id.startswith("RANK_") \
                        and isinstance(node.value, ast.Constant) \
                        and isinstance(node.value.value, int):
                    table[node.targets[0].id[5:]] = node.value.value
        return table

    def annotations_for(self, ctx_path: str, source: str) -> Annotations:
        found = self._annotations.get(ctx_path)
        if found is None:
            found = Annotations(source)
            self._annotations[ctx_path] = found
        return found

    # ------------------------------------------------------------ collection

    def _collect(self) -> None:
        """Two passes: locks first, then conditions (which refer back)."""
        sites = self._lock_sites()
        for late in (False, True):
            for owner_key, table, label_base, value, node, ctx_path, \
                    posix, fn in sites:
                is_cond = self._is_condition_site(value, fn)
                if is_cond != late:
                    continue
                ref = self._classify(owner_key, label_base, value, node,
                                     ctx_path, posix, fn)
                if ref is not None:
                    table[owner_key] = ref

    def _lock_sites(self) -> list[tuple]:
        sites: list[tuple] = []
        for site in self.program.attr_assignments:
            posix = site.method.ctx.posix_path
            if _is_mechanism(posix):
                continue
            annots = self.annotations_for(site.method.ctx.path,
                                          site.method.ctx.source)
            if annots.confined(site.node.lineno) == "engine":
                self.confined_attrs.add((site.cls.name, site.attr))
            sites.append(((site.cls.name, site.attr), self.attr_locks,
                          f"{site.cls.name}.{site.attr}", site.value,
                          site.node, site.method.ctx.path, posix,
                          site.method))
        for fn in self.program.functions:
            posix = fn.ctx.posix_path
            if _is_mechanism(posix):
                continue
            for name, value, node in self.program.local_assignments(fn):
                sites.append(((fn.qualname, name), self.local_locks,
                              f"{fn.qualname}:{name}", value, node,
                              fn.ctx.path, posix, fn))
        return sites

    def _is_condition_site(self, value: ast.expr,
                           fn: FunctionInfo) -> bool:
        if not isinstance(value, ast.Call):
            return False
        if isinstance(value.func, ast.Attribute) \
                and value.func.attr == "condition":
            return True
        qual = fn.ctx.qualname(value.func)
        return qual == "threading.Condition" or (
            qual is not None and qual.endswith(".Condition"))

    def _classify(self, owner_key: tuple[str, str], label: str,
                  value: ast.expr, node: ast.stmt, ctx_path: str,
                  posix: str, fn: FunctionInfo) -> LockRef | None:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        qual = fn.ctx.qualname(func)
        tail = qual.rsplit(".", 1)[-1] if qual else ""
        if tail == "OrderedLock":
            return self._ordered_lock(label, value)
        if qual in _RAW_LOCK_QUALNAMES:
            kind = _RAW_LOCK_QUALNAMES[qual]
            if kind == "Condition":
                return self._condition(owner_key, label, value, node,
                                       ctx_path, fn)
            return self._raw_lock(label, kind, node, ctx_path, fn)
        if isinstance(func, ast.Attribute) and func.attr == "condition":
            inherited = self._lock_of_expr(func.value, fn,
                                           dict(fn.param_types))
            if inherited is not None:
                return inherited
            self.unranked.append((
                ctx_path, value,
                f"condition {label} built from an unranked lock"))
        return None

    def _ordered_lock(self, label: str, call: ast.Call) -> LockRef:
        key = label
        if call.args and isinstance(call.args[0], ast.Constant) \
                and isinstance(call.args[0].value, str):
            key = call.args[0].value
        rank = self._rank_expr(call.args[1]) if len(call.args) > 1 else None
        return LockRef(key=key, label=key,
                       rank=rank if rank is not None
                       else _DEFAULT_RANKS["ENGINE"])

    def _rank_expr(self, expr: ast.expr) -> int | None:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value
        if isinstance(expr, ast.Name) and expr.id.startswith("RANK_"):
            return self.ranks.get(expr.id[5:])
        return None

    def _raw_lock(self, label: str, kind: str, node: ast.stmt,
                  ctx_path: str, fn: FunctionInfo) -> LockRef | None:
        annots = self.annotations_for(fn.ctx.path, fn.ctx.source)
        annotated = annots.lock_rank(node.lineno)
        if annotated is None:
            self.unranked.append((
                ctx_path, node,
                f"threading.{kind}() bound to {label}"))
            return None
        name, reentrant = annotated
        rank = self.ranks.get(name)
        if rank is None:
            self.unranked.append((
                ctx_path, node,
                f"threading.{kind}() bound to {label} names unknown "
                f"rank {name!r}"))
            return None
        return LockRef(key=label, label=f"{label} [{name}]", rank=rank,
                       reentrant=reentrant or kind == "RLock")

    def _condition(self, owner_key: tuple[str, str], label: str,
                   call: ast.Call, node: ast.stmt, ctx_path: str,
                   fn: FunctionInfo) -> LockRef | None:
        if call.args:
            inherited = self._lock_of_expr(call.args[0], fn,
                                           dict(fn.param_types))
            if inherited is not None:
                return inherited
        return self._raw_lock(label, "Condition", node, ctx_path, fn)

    # ------------------------------------------------------------ resolution

    def _lock_of_expr(self, expr: ast.expr, fn: FunctionInfo,
                     env: dict[str, str]) -> LockRef | None:
        """The ranked lock an expression names, if any."""
        if isinstance(expr, ast.Name):
            return self.local_locks.get((fn.qualname, expr.id))
        if isinstance(expr, ast.Attribute):
            owner: str | None
            if isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self" and fn.cls is not None:
                owner = fn.cls.name
            else:
                owner = self.program.infer_type(expr.value, fn, env)
            return self._attr_lock(owner, expr.attr)
        return None

    def _attr_lock(self, owner: str | None, attr: str) -> LockRef | None:
        """Attribute lock lookup through the by-name base-class chain."""
        for name in self.program.lineage(owner):
            found = self.attr_locks.get((name, attr))
            if found is not None:
                return found
        return None

    def acquisitions(self, expr: ast.expr, fn: FunctionInfo,
                     env: dict[str, str]) -> list[LockRef]:
        """Locks acquired by using *expr* as a ``with`` item."""
        direct = self._lock_of_expr(expr, fn, env)
        if direct is not None:
            return [direct]
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute):
            if expr.func.attr == "slot":
                owner = self.program.infer_type(expr.func.value, fn, env)
                if owner == "FairScheduler":
                    return [self.engine_slot]
            if expr.func.attr == "condition":
                inherited = self._lock_of_expr(expr.func.value, fn, env)
                if inherited is not None:
                    return [inherited]
        return []

    def note_acquired_rank(self, call: ast.Call,
                           fn: FunctionInfo) -> LockRef | None:
        """``note_acquired(RANK_X, "name")`` as a summary-level
        acquisition (the scheduler's non-lexical slot publication)."""
        qual = fn.ctx.qualname(call.func)
        if qual is None or qual.rsplit(".", 1)[-1] != "note_acquired":
            return None
        if not call.args:
            return None
        rank = self._rank_expr(call.args[0])
        if rank is None:
            return None
        key = f"rank:{rank}"
        if len(call.args) > 1 and isinstance(call.args[1], ast.Constant) \
                and isinstance(call.args[1].value, str):
            key = call.args[1].value
        return LockRef(key=key, label=key, rank=rank)


class HeldWalker:
    """Lexical walk of one function with a held-lock stack.

    Callbacks (any may be ``None``):

    * ``on_acquire(ref, node, held, is_note)`` — a ``with`` item (or
      ``note_acquired`` call) acquires *ref* while *held* are held;
    * ``on_call(callee, call, held)`` — a resolved program call while
      *held* are held (the call that *is* a ``with`` acquisition — e.g.
      ``scheduler.slot(...)`` — is reported via ``on_acquire`` only).

    Nested ``def`` bodies are walked with a fresh held stack (they run
    later, possibly on another thread); their acquisitions still reach
    the callbacks so summaries stay conservative.
    """

    def __init__(self, program: Program, locks: LockModel,
                 fn: FunctionInfo, *,
                 on_acquire: Callable[..., None] | None = None,
                 on_call: Callable[..., None] | None = None) -> None:
        self.program = program
        self.locks = locks
        self.fn = fn
        self.env = dict(fn.param_types)
        self.on_acquire = on_acquire
        self.on_call = on_call
        self._acquired_calls: set[int] = set()

    def run(self) -> None:
        self._stmts(self.fn.node.body, [])

    # ------------------------------------------------------------ statements

    def _stmts(self, body: list[ast.stmt],
               held: list[LockRef]) -> None:
        for stmt in body:
            self._stmt(stmt, held)

    def _stmt(self, stmt: ast.stmt, held: list[LockRef]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt, held)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._stmts(stmt.body, [])
        elif isinstance(stmt, ast.ClassDef):
            self._stmts(stmt.body, held)
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value, held)
            if len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                inferred = self.program.infer_type(stmt.value, self.fn,
                                                   self.env)
                if inferred is not None:
                    self.env[stmt.targets[0].id] = inferred
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body, held)
            for handler in stmt.handlers:
                self._stmts(handler.body, held)
            self._stmts(stmt.orelse, held)
            self._stmts(stmt.finalbody, held)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, held)

    def _with(self, stmt: ast.With | ast.AsyncWith,
              held: list[LockRef]) -> None:
        pushed = 0
        for item in stmt.items:
            refs = self.locks.acquisitions(item.context_expr, self.fn,
                                           self.env)
            if refs and isinstance(item.context_expr, ast.Call):
                self._acquired_calls.add(id(item.context_expr))
            self._expr(item.context_expr, held)
            for ref in refs:
                if self.on_acquire is not None:
                    self.on_acquire(ref, item.context_expr, list(held),
                                    False)
                held.append(ref)
                pushed += 1
        self._stmts(stmt.body, held)
        for _ in range(pushed):
            held.pop()

    # ----------------------------------------------------------- expressions

    def _expr(self, expr: ast.expr, held: list[LockRef]) -> None:
        if isinstance(expr, ast.Lambda):
            return      # deferred body: out of lexical lock scope
        if isinstance(expr, ast.Call):
            self._call(expr, held)
            self._expr(expr.func, held)
            for arg in expr.args:
                self._expr(arg, held)
            for kw in expr.keywords:
                self._expr(kw.value, held)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child, held)

    def _call(self, call: ast.Call, held: list[LockRef]) -> None:
        note = self.locks.note_acquired_rank(call, self.fn)
        if note is not None:
            if self.on_acquire is not None:
                self.on_acquire(note, call, list(held), True)
            return
        if id(call) in self._acquired_calls:
            return      # the with-item acquisition already reported it
        if self.on_call is None:
            return
        callee = self.program.resolve_call(self.fn, call, self.env)
        if callee is not None:
            self.on_call(callee, call, list(held))


class SummaryTable:
    """Transitive *may-acquire* sets per function qualname."""

    def __init__(self, program: Program, locks: LockModel) -> None:
        self.direct: dict[str, dict[str, LockRef]] = {}
        self.calls: dict[str, set[str]] = {}
        for fn in program.functions:
            if _is_mechanism(fn.ctx.posix_path):
                continue
            acquired: dict[str, LockRef] = {}
            edges: set[str] = set()

            def on_acquire(ref: LockRef, node: ast.AST,
                           held: list[LockRef], is_note: bool,
                           _acc: dict[str, LockRef] = acquired) -> None:
                _acc[ref.key] = ref

            def on_call(callee: FunctionInfo, call: ast.Call,
                        held: list[LockRef],
                        _edges: set[str] = edges) -> None:
                _edges.add(callee.qualname)

            HeldWalker(program, locks, fn, on_acquire=on_acquire,
                       on_call=on_call).run()
            self.direct[fn.qualname] = acquired
            self.calls[fn.qualname] = edges
        self.transitive = self._fixpoint()

    @staticmethod
    def of(program: Program, locks: LockModel,
           shared: dict[str, object]) -> "SummaryTable":
        table = shared.get("summaries")
        if not isinstance(table, SummaryTable):
            table = SummaryTable(program, locks)
            shared["summaries"] = table
        return table

    def _fixpoint(self) -> dict[str, dict[str, LockRef]]:
        trans = {name: dict(refs) for name, refs in self.direct.items()}
        changed = True
        while changed:
            changed = False
            for name, edges in self.calls.items():
                mine = trans[name]
                before = len(mine)
                for callee in edges:
                    mine.update(trans.get(callee, {}))
                if len(mine) != before:
                    changed = True
        return trans

    def may_acquire(self, qualname: str) -> dict[str, LockRef]:
        return self.transitive.get(qualname, {})
