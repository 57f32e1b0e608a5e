"""R12 — dead surface: a public definition in ``repro`` has a caller.

A definition that only its own test reaches is not part of the program:
it costs reading, keeps its tests alive, and drifts from what the engine
does.  The rule flags every public function, class, method, property and
module-level name of the ``repro`` package that no *caller file* names.

Caller files are everything under ``src/``, ``bench/``, ``benchmarks/``
and ``examples/`` of the checkout that holds the package, plus the
```` ```python ```` blocks of its ``README.md``.  A reference is any
identifier, attribute, import name or identifier-shaped string constant
(each part of a dotted one), so a name ``bench/trace.py``'s
``BOUNDARIES`` pins by string counts as called.  Two things never count:
files under a ``tests/`` directory, and ``__init__`` re-exports
(``from .x import n`` and the strings of ``__all__``).

Matching is by name only, so a definition whose name any caller names —
for whatever object — counts as called: the rule errs toward silence.  A
README block that does not parse is reported, because the rule could not
read the callers in it.  Files outside a ``repro`` package (``tools/``,
for one) are never flagged.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from ..engine import FileContext, Finding, ProgramRule, iter_python_files

#: caller directories under the checkout root, besides the package's own
#: ``src`` directory
_CALLER_DIRS = ("bench", "benchmarks", "examples")

_README_BLOCK_RE = re.compile(r"^```python[ \t]*\n(.*?)^```", re.M | re.S)


def _package_root(path: Path) -> Path | None:
    """The ``repro`` package directory ``path`` lies in, if any."""
    parts = path.parts
    if "repro" not in parts[:-1]:
        return None
    return Path(*parts[:parts.index("repro") + 1])


def _names_in(tree: ast.Module, is_init: bool) -> Iterator[str]:
    """Every name ``tree`` uses, minus an ``__init__``'s re-exports."""
    skipped: set[int] = set()
    if is_init:
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                skipped.add(id(node))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                skipped.update(id(sub) for sub in ast.walk(node.value))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def _definitions(body: list[ast.stmt], owner: str
                 ) -> Iterator[tuple[str, str, ast.AST]]:
    """(name, qualified name, node) of each public definition in ``body``;
    methods of nested classes included, nested functions not."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif not owner and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, owner + name, node
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{owner}{node.name}.")


class DeadSurfaceRule(ProgramRule):
    id = "R12"
    name = "dead-surface"
    description = ("every public function, class, method, property and "
                   "module-level name of repro is named by a caller file "
                   "(src/, bench/, benchmarks/, examples/, README python "
                   "blocks); tests/ and __init__ re-exports never count")
    hint = ("delete the definition and the tests that only it needed, or "
            "justify it with '# reprolint: disable=R12 -- <test that "
            "needs it>'")

    def check_program(self, files: list[FileContext],
                      shared: dict[str, object]) -> list[Finding]:
        parsed = {Path(ctx.path).resolve(): ctx.tree for ctx in files}
        findings: list[Finding] = []
        called_by_pkg: dict[Path, set[str]] = {}
        for ctx in files:
            pkg = _package_root(Path(ctx.path).resolve())
            if pkg is None:
                continue
            if pkg not in called_by_pkg:
                called_by_pkg[pkg] = self._called_names(pkg, parsed,
                                                        findings)
            called = called_by_pkg[pkg]
            for name, qualname, node in _definitions(ctx.tree.body, ""):
                if name not in called:
                    findings.append(self.finding_at(
                        ctx.path, node,
                        f"{qualname} is public, but nothing outside "
                        f"tests/ names it"))
        return findings

    def _called_names(self, pkg: Path, parsed: dict[Path, ast.Module],
                      findings: list[Finding]) -> set[str]:
        src = pkg.parent
        root = src.parent if src.name == "src" else src
        called: set[str] = set()
        for top in [src] + [root / name for name in _CALLER_DIRS]:
            if not top.is_dir():
                continue
            for path in iter_python_files(top):
                if "tests" in path.relative_to(top).parts:
                    continue
                tree = parsed.get(path.resolve())
                if tree is None:
                    try:
                        tree = ast.parse(path.read_text(encoding="utf-8"))
                    except (OSError, SyntaxError, ValueError):
                        continue    # not ours to report: lint it for E0
                called.update(_names_in(tree, path.name == "__init__.py"))
        readme = root / "README.md"
        if readme.is_file():
            text = readme.read_text(encoding="utf-8")
            for block in _README_BLOCK_RE.finditer(text):
                line = text.count("\n", 0, block.start(1)) + 1
                try:
                    tree = ast.parse(block.group(1))
                except SyntaxError as exc:
                    findings.append(Finding(
                        rule=self.id, name=self.name, path=str(readme),
                        line=line + (exc.lineno or 1) - 1, col=0,
                        message=f"README python block does not parse "
                                f"({exc.msg}), so its callers cannot be "
                                f"read",
                        hint="make the block valid Python (use a "
                             "```text fence for output)"))
                    continue
                called.update(_names_in(tree, False))
        return called
