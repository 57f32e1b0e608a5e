"""Cross-module program model: classes, attribute types, call resolution.

The interprocedural rules (R9 lock-order, R10 slot confinement, R11 2PC
protocol) need to answer two questions the per-file AST cannot:

* *what does this expression refer to?* — ``self._manager`` in
  ``GroupCommitter`` is a ``TransactionManager``; ``router.shards[0]`` is
  a ``Database``;
* *what function does this call reach?* — so lock summaries can
  propagate along call edges to a fixpoint.

Both are answered with deliberately simple, **under-approximating**
inference (stdlib ``ast`` only, no execution):

* classes are indexed by bare name program-wide; a name defined twice is
  *ambiguous* and resolves to nothing (rules stay silent rather than
  guess);
* attribute types come from ``self.X = <expr>`` assignments, where the
  expression's type is a constructor call (``self.db = Database(...)``),
  an annotated parameter (``def __init__(self, manager:
  "TransactionManager")`` … ``self._manager = manager``), another
  attribute chain, or a list of constructed objects
  (``self.shards = [Database(...) for ...]`` types as ``list[Database]``
  so ``self.shards[k]`` types as ``Database``).  Attribute typing runs to
  a small fixpoint so chains across classes (``session._db = server.db``)
  resolve;
* attribute types and calls resolve through ``self`` and typed receivers,
  base classes included by name (a subclass method sees what its base's
  ``__init__`` bound); calls also resolve through module-level names and
  program-wide-unique function names — anything else resolves to ``None``
  and contributes nothing.

Unresolved calls make the analysis *less complete*, never unsound in the
direction that matters: a rule can miss a violation behind dynamic
dispatch, but it cannot invent one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext

#: path components below which dotted module names start
_ANCHORS = ("repro", "tools")


def module_name_for(path: str) -> str:
    """Dotted module name for a posix path, anchored at ``repro``/``tools``
    (``src/repro/serve/session.py`` -> ``repro.serve.session``)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] in _ANCHORS:
            return ".".join(parts[index:])
    return ".".join(parts[-2:]) if len(parts) >= 2 else (
        parts[0] if parts else "<module>")


def annotation_class(annotation: ast.expr | None) -> str | None:
    """Best-effort class name out of an annotation expression.

    Handles ``Name``, ``Attribute`` tails, string annotations (including
    ``"X | None"``) and ``X | None`` unions; returns ``None`` for
    anything generic or unresolvable.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        text = annotation.value.split("|")[0].split("[")[0].strip()
        return text.rsplit(".", 1)[-1] or None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.BinOp) \
            and isinstance(annotation.op, ast.BitOr):
        return annotation_class(annotation.left)
    return None


class FunctionInfo:
    """One top-level function or method of the program."""

    __slots__ = ("qualname", "node", "ctx", "module", "cls", "param_types")

    def __init__(self, qualname: str,
                 node: ast.FunctionDef | ast.AsyncFunctionDef,
                 ctx: FileContext, module: "ModuleInfo",
                 cls: "ClassInfo | None") -> None:
        self.qualname = qualname
        self.node = node
        self.ctx = ctx
        self.module = module
        self.cls = cls
        #: parameter name -> annotated class name
        self.param_types: dict[str, str] = {}
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            hint = annotation_class(arg.annotation)
            if hint is not None:
                self.param_types[arg.arg] = hint


class ClassInfo:
    """One class of the program, with inferred attribute types."""

    __slots__ = ("name", "node", "module", "methods", "bases", "attr_types")

    def __init__(self, name: str, node: ast.ClassDef,
                 module: "ModuleInfo") -> None:
        self.name = name
        self.node = node
        self.module = module
        self.methods: dict[str, FunctionInfo] = {}
        self.bases: list[str] = []
        for base in node.bases:
            # a generic base (``Core["Database", "Transaction"]``) is its
            # unsubscripted class for method and attribute lookup
            hint = annotation_class(
                base.value if isinstance(base, ast.Subscript) else base)
            if hint is not None:
                self.bases.append(hint)
        #: attribute name -> inferred class name (``list[X]`` for lists)
        self.attr_types: dict[str, str] = {}


class ModuleInfo:
    """One source file as a module: its functions and classes."""

    __slots__ = ("name", "ctx", "functions", "classes")

    def __init__(self, name: str, ctx: FileContext) -> None:
        self.name = name
        self.ctx = ctx
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}


class AttrAssignment:
    """One ``self.X = <expr>`` site (input to lock/type inference)."""

    __slots__ = ("cls", "method", "attr", "value", "node")

    def __init__(self, cls: ClassInfo, method: FunctionInfo, attr: str,
                 value: ast.expr, node: ast.Assign) -> None:
        self.cls = cls
        self.method = method
        self.attr = attr
        self.value = value
        self.node = node


class Program:
    """The whole-program model shared by the interprocedural rules."""

    def __init__(self, files: list[FileContext]) -> None:
        self.files = files
        self.modules: dict[str, ModuleInfo] = {}
        self._classes: dict[str, ClassInfo | None] = {}
        self._module_funcs: dict[str, FunctionInfo | None] = {}
        self.functions: list[FunctionInfo] = []
        self.attr_assignments: list[AttrAssignment] = []
        self._index(files)
        self._infer_attr_types()

    @staticmethod
    def of(files: list[FileContext],
           shared: dict[str, object]) -> "Program":
        """The per-run program model, built once and stashed in the lint
        run's shared mapping so every rule reuses it."""
        program = shared.get("program")
        if not isinstance(program, Program):
            program = Program(files)
            shared["program"] = program
        return program

    # ------------------------------------------------------------- indexing

    def _index(self, files: list[FileContext]) -> None:
        for ctx in files:
            module = ModuleInfo(module_name_for(ctx.posix_path), ctx)
            self.modules[module.name] = module
            for node in ctx.tree.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    info = FunctionInfo(f"{module.name}.{node.name}",
                                        node, ctx, module, None)
                    module.functions[node.name] = info
                    self.functions.append(info)
                    self._register_unique(self._module_funcs, node.name,
                                          info)
                elif isinstance(node, ast.ClassDef):
                    self._index_class(module, node)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        cls = ClassInfo(node.name, node, module)
        module.classes[node.name] = cls
        self._register_unique(self._classes, node.name, cls)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    f"{module.name}.{node.name}.{stmt.name}",
                    stmt, module.ctx, module, cls)
                cls.methods[stmt.name] = info
                self.functions.append(info)

    @staticmethod
    def _register_unique(table: dict[str, object], name: str,
                         value: object) -> None:
        if name in table:
            table[name] = None      # ambiguous: resolves to nothing
        else:
            table[name] = value

    # -------------------------------------------------------------- lookup

    def class_named(self, name: str | None) -> ClassInfo | None:
        if name is None:
            return None
        if name.startswith("list[") and name.endswith("]"):
            return None
        found = self._classes.get(name)
        return found if isinstance(found, ClassInfo) else None

    def lineage(self, class_name: str | None) -> Iterator[str]:
        """A class name, then its by-name base chain (each name once; an
        unknown or ambiguous name is yielded but not walked further)."""
        seen: set[str] = set()
        stack = [class_name] if class_name else []
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            yield name
            cls = self.class_named(name)
            if cls is not None:
                stack.extend(cls.bases)

    def method_of(self, class_name: str | None,
                  method: str) -> FunctionInfo | None:
        """Resolve a method through a class and its by-name base chain."""
        for name in self.lineage(class_name):
            cls = self.class_named(name)
            if cls is not None and method in cls.methods:
                return cls.methods[method]
        return None

    def attr_type(self, class_name: str | None, attr: str) -> str | None:
        """The inferred type of an attribute, bound in the class itself or
        in a base's ``__init__`` (same chain as :meth:`method_of`)."""
        for name in self.lineage(class_name):
            cls = self.class_named(name)
            if cls is not None and attr in cls.attr_types:
                return cls.attr_types[attr]
        return None

    # ------------------------------------------------------ type inference

    def _infer_attr_types(self) -> None:
        """Collect ``self.X = expr`` sites and type them to a fixpoint
        (chains like ``session._db = server.db`` need ``Server.db`` typed
        first; a few rounds always converge — the chains are short)."""
        sites: list[AttrAssignment] = []
        for info in self.functions:
            if info.cls is None:
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign) \
                        or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    sites.append(AttrAssignment(
                        info.cls, info, target.attr, node.value, node))
        self.attr_assignments = sites
        for _round in range(4):
            changed = False
            for site in sites:
                if site.attr in site.cls.attr_types:
                    continue
                env = dict(site.method.param_types)
                inferred = self.infer_type(site.value, site.method, env)
                if inferred is not None:
                    site.cls.attr_types[site.attr] = inferred
                    changed = True
            if not changed:
                break

    def infer_type(self, expr: ast.expr, fn: FunctionInfo,
                   env: dict[str, str]) -> str | None:
        """The class name an expression evaluates to, or ``None``."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and fn.cls is not None:
                return fn.cls.name
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attr_type(self.infer_type(expr.value, fn, env),
                                  expr.attr)
        if isinstance(expr, ast.Subscript):
            owner = self.infer_type(expr.value, fn, env)
            if owner is not None and owner.startswith("list[") \
                    and owner.endswith("]"):
                return owner[5:-1]
            return None
        if isinstance(expr, ast.Call):
            callee = self._constructed_class(expr.func)
            if callee is not None:
                return callee
            return None
        if isinstance(expr, (ast.ListComp, ast.List)):
            element: ast.expr | None = None
            if isinstance(expr, ast.ListComp):
                element = expr.elt
            elif expr.elts:
                element = expr.elts[0]
            if isinstance(element, ast.Call):
                inner = self._constructed_class(element.func)
                if inner is not None:
                    return f"list[{inner}]"
            return None
        return None

    def _constructed_class(self, func: ast.expr) -> str | None:
        """``X(...)``/``pkg.X(...)`` where ``X`` is a known class name."""
        name: str | None = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name if self.class_named(name) is not None else None

    # ------------------------------------------------------ call resolution

    def resolve_call(self, fn: FunctionInfo, call: ast.Call,
                     env: dict[str, str]) -> FunctionInfo | None:
        """The program function a call reaches, or ``None`` (dynamic,
        stdlib, ambiguous — all contribute nothing to summaries)."""
        func = call.func
        if isinstance(func, ast.Name):
            local = fn.module.functions.get(func.id)
            if local is not None:
                return local
            found = self._module_funcs.get(func.id)
            return found if isinstance(found, FunctionInfo) else None
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if receiver.id == "self" and fn.cls is not None:
                    return self.method_of(fn.cls.name, func.attr)
                if self.class_named(receiver.id) is not None:
                    return self.method_of(receiver.id, func.attr)
            owner = self.infer_type(receiver, fn, env)
            if owner is not None:
                return self.method_of(owner, func.attr)
        return None

    # --------------------------------------------------------------- misc

    def local_assignments(self, fn: FunctionInfo
                          ) -> Iterator[tuple[str, ast.expr, ast.Assign]]:
        """``name = expr`` sites in a function (lock locals, aliases)."""
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                yield node.targets[0].id, node.value, node
