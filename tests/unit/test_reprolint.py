"""Tests for the reprolint static-analysis engine (tools/reprolint).

Each rule gets a bad fixture (must fire) and a good fixture (must stay
silent); the suite also pins the suppression pragma semantics, the JSON
output shape, the CLI exit codes — and that the real ``src/repro`` tree is
clean under ``--strict``, which is the gate CI enforces.
"""

import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (ALL_RULES, Finding, Linter,  # noqa: E402
                             Project, rule_by_id)
from tools.reprolint.cli import main  # noqa: E402
from tools.reprolint.engine import parse_suppressions  # noqa: E402
from tools.reprolint.rules import r13_tombstones  # noqa: E402

SRC_REPRO = REPO_ROOT / "src" / "repro"


def lint(source, rule_ids=("R1", "R2", "R3", "R4", "R5", "R7"), *,
         path="pkg/module.py", strict=False):
    """Lint one dedented snippet with a subset of rules."""
    rules = [rule_by_id(rid)() for rid in rule_ids]
    linter = Linter(rules, Project(), strict=strict)
    return linter.lint_source(textwrap.dedent(source), path)


def fired(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# ----------------------------------------------------------- R1 determinism

class TestR1Determinism:
    def test_wall_clock_read_fires(self):
        findings = lint("""
            import time

            def stamp() -> float:
                return time.time()
            """, ["R1"])
        assert len(fired(findings, "R1")) == 1
        assert "time.time" in findings[0].message

    def test_aliased_import_is_resolved(self):
        findings = lint("""
            from time import time as now

            def stamp() -> float:
                return now()
            """, ["R1"])
        assert len(fired(findings, "R1")) == 1

    def test_module_level_random_fires(self):
        findings = lint("""
            import random

            def pick() -> float:
                return random.random()
            """, ["R1"])
        assert len(fired(findings, "R1")) == 1
        assert "unseeded" in findings[0].message

    def test_system_random_fires(self):
        findings = lint("""
            import random

            def gen() -> int:
                return random.SystemRandom().randrange(10)
            """, ["R1"])
        assert len(fired(findings, "R1")) == 1

    def test_os_urandom_and_uuid4_fire(self):
        findings = lint("""
            import os
            import uuid

            def token() -> bytes:
                return os.urandom(8) + uuid.uuid4().bytes
            """, ["R1"])
        assert len(fired(findings, "R1")) == 2

    def test_seeded_random_instance_is_clean(self):
        findings = lint("""
            import random

            def make_rng(seed: int) -> random.Random:
                return random.Random(seed)
            """, ["R1"])
        assert findings == []

    def test_findings_carry_location_and_hint(self):
        findings = lint("import time\nx = time.time()\n", ["R1"])
        assert findings[0].line == 2
        assert "SimClock" in findings[0].hint


# -------------------------------------------------------- R2 exhaustiveness

class TestR2RecordExhaustive:
    def test_partial_chain_without_else_fires(self):
        findings = lint("""
            def dispatch(r):
                if r.rtype is RecordType.REGULAR:
                    return 1
                elif r.rtype is RecordType.TOMBSTONE:
                    return 2
            """, ["R2"])
        assert len(fired(findings, "R2")) == 1
        missing = findings[0].message
        assert "ANTI" in missing and "REPLACEMENT" in missing
        assert "REGULAR_SET" in missing

    def test_partial_chain_with_silent_else_fires(self):
        findings = lint("""
            def dispatch(r):
                if r.rtype is RecordType.REGULAR:
                    return 1
                elif r.rtype is RecordType.ANTI:
                    return 2
                else:
                    return 0
            """, ["R2"])
        assert len(fired(findings, "R2")) == 1

    def test_partial_chain_with_raising_else_is_clean(self):
        findings = lint("""
            def dispatch(r):
                if r.rtype is RecordType.REGULAR:
                    return 1
                elif r.rtype is RecordType.ANTI:
                    return 2
                else:
                    raise StorageError(f"unhandled {r.rtype}")
            """, ["R2"])
        assert findings == []

    def test_full_coverage_is_clean(self):
        findings = lint("""
            def dispatch(r):
                if r.rtype is RecordType.REGULAR:
                    return 1
                elif r.rtype is RecordType.REPLACEMENT:
                    return 2
                elif r.rtype is RecordType.ANTI:
                    return 3
                elif r.rtype is RecordType.TOMBSTONE:
                    return 4
                elif r.rtype is RecordType.REGULAR_SET:
                    return 5
            """, ["R2"])
        assert findings == []

    def test_single_branch_filter_is_not_a_dispatch(self):
        findings = lint("""
            def only_matter(r):
                if r.rtype is RecordType.REGULAR_SET:
                    return r.set_entries
                return []
            """, ["R2"])
        assert findings == []

    def test_match_without_wildcard_fires(self):
        findings = lint("""
            def dispatch(r):
                match r.rtype:
                    case RecordType.REGULAR:
                        return 1
                    case RecordType.ANTI:
                        return 2
            """, ["R2"])
        assert len(fired(findings, "R2")) == 1

    def test_match_with_raising_wildcard_is_clean(self):
        findings = lint("""
            def dispatch(r):
                match r.rtype:
                    case RecordType.REGULAR:
                        return 1
                    case RecordType.ANTI:
                        return 2
                    case _:
                        raise StorageError("unhandled record type")
            """, ["R2"])
        assert findings == []


# --------------------------------------------------------- R3 immutability

class TestR3Immutability:
    def test_attribute_store_on_constructed_run_fires(self):
        findings = lint("""
            def rewrite(file, pool, records):
                run = PersistedRun(file, pool, records)
                run.page_nos = []
                return run
            """, ["R3"])
        assert len(fired(findings, "R3")) == 1

    def test_mutating_call_through_run_attribute_fires(self):
        findings = lint("""
            def patch(part, n):
                part.run.page_nos.append(n)
            """, ["R3"])
        assert len(fired(findings, "R3")) == 1

    def test_restore_binding_is_tracked(self):
        findings = lint("""
            def reattach(file, pool, meta):
                run = PersistedRun.restore(file, pool, page_nos=meta.pages)
                run.record_count = 0
                return run
            """, ["R3"])
        assert len(fired(findings, "R3")) == 1

    def test_lifecycle_method_is_clean(self):
        findings = lint("""
            def retire(file, pool, records):
                run = PersistedRun(file, pool, records)
                run.free()
            """, ["R3"])
        assert findings == []

    def test_defining_module_is_exempt(self):
        source = """
            def rebuild(file, pool, records):
                run = PersistedRun(file, pool, records)
                run.page_nos = []
            """
        assert lint(source, ["R3"], path="src/repro/index/runs.py") == []
        assert len(lint(source, ["R3"], path="src/repro/core/tree.py")) == 1

    def test_decoded_batch_mutation_fires(self):
        findings = lint("""
            def tamper(blob):
                batch = decode_leaf_batch(blob)
                batch.ts[0] = 0
                batch.rtypes = b""
            """, ["R3"])
        assert len(fired(findings, "R3")) == 2

    def test_loaded_page_mutation_fires(self):
        findings = lint("""
            def tamper(run, idx):
                page = run.load_page(idx)
                page.records.append(None)
            """, ["R3"])
        assert len(fired(findings, "R3")) == 1

    def test_batch_read_access_is_clean(self):
        findings = lint("""
            def read(blob):
                batch = decode_leaf_batch(blob)
                return batch.keys(), batch.payload_view(0)
            """, ["R3"])
        assert findings == []

    def test_serialization_module_is_exempt(self):
        source = """
            def build(records):
                batch = decode_leaf_batch(encode_leaf_batch(records))
                batch.count = 0
            """
        assert lint(source, ["R3"],
                    path="src/repro/core/serialization.py") == []
        assert len(lint(source, ["R3"],
                        path="src/repro/core/tree.py")) == 1


# -------------------------------------------------------- R4 storage bypass

class TestR4StorageBypass:
    def test_builtin_open_fires(self):
        findings = lint("""
            def dump(path):
                with open(path, "w") as fh:
                    fh.write("x")
            """, ["R4"])
        assert len(fired(findings, "R4")) == 1
        assert "DeviceStats" in findings[0].message

    def test_os_read_and_mmap_fire(self):
        findings = lint("""
            import mmap
            import os

            def peek(fd):
                os.read(fd, 16)
                return mmap.mmap(fd, 4096)
            """, ["R4"])
        assert len(fired(findings, "R4")) == 2

    def test_locally_defined_open_is_not_builtin(self):
        findings = lint("""
            def open(page_no):
                return page_no

            def use():
                return open(3)
            """, ["R4"])
        assert findings == []

    def test_suppression_with_justification(self):
        findings = lint("""
            def dump_report(path, text):
                with open(path, "w") as fh:  # reprolint: disable=R4 -- host-side report emitter, not engine I/O
                    fh.write(text)
            """, ["R4"], strict=True)
        assert findings == []


# ------------------------------------------------------ R5 error discipline

class TestR5ErrorDiscipline:
    def test_raise_outside_hierarchy_fires(self):
        findings = lint("""
            def check(n):
                if n < 0:
                    raise ValueError("negative")
            """, ["R5"])
        assert len(fired(findings, "R5")) == 1
        assert "ReproError" in findings[0].message

    def test_repro_error_subclass_is_clean(self):
        findings = lint("""
            def check(n):
                if n < 0:
                    raise StorageError("negative")
            """, ["R5"])
        assert findings == []

    def test_reraise_is_clean(self):
        findings = lint("""
            def forward():
                try:
                    work()
                except StorageError as exc:
                    log(exc)
                    raise
            """, ["R5"])
        assert findings == []

    def test_bare_except_fires_anywhere(self):
        findings = lint("""
            def swallow():
                try:
                    work()
                except:
                    pass
            """, ["R5"])
        assert len(fired(findings, "R5")) == 1

    def test_swallowed_broad_except_in_durability_fires(self):
        source = """
            def recover_step():
                try:
                    replay()
                except Exception:
                    return None
            """
        bad = lint(source, ["R5"], path="src/repro/durability/recovery.py")
        assert len(fired(bad, "R5")) == 1
        # the same shape outside a durability path is tolerated
        assert lint(source, ["R5"], path="src/repro/engine/database.py") == []

    def test_broad_except_that_reraises_is_clean(self):
        findings = lint("""
            def recover_step():
                try:
                    replay()
                except Exception as exc:
                    cleanup()
                    raise RecoveryError("replay failed") from exc
            """, ["R5"], path="src/repro/durability/recovery.py")
        assert findings == []


# -------------------------------------------------- R7 time discipline

class TestR7TimeDiscipline:
    def test_time_import_fires_even_unused(self):
        findings = lint("""
            import time

            def noop() -> None:
                return None
            """, ["R7"])
        assert len(fired(findings, "R7")) == 1
        assert "SimClock" in findings[0].message

    def test_datetime_from_import_fires(self):
        findings = lint("""
            from datetime import datetime

            def label() -> str:
                return "x"
            """, ["R7"])
        assert len(fired(findings, "R7")) == 1
        assert "datetime" in findings[0].message

    def test_dotted_submodule_import_fires(self):
        findings = lint("import datetime.timezone\n", ["R7"])
        assert len(fired(findings, "R7")) == 1

    def test_dunder_import_dodge_fires(self):
        findings = lint('x = __import__("time").time()\n', ["R7"])
        assert len(fired(findings, "R7")) == 1
        assert "dynamic import" in findings[0].message

    def test_dunder_import_of_allowed_module_is_clean(self):
        findings = lint('mod = __import__("json")\n', ["R7"])
        assert findings == []

    def test_private_tracer_construction_fires(self):
        findings = lint("""
            from repro.obs.tracing import Tracer

            def make(clock):
                return Tracer(clock)
            """, ["R7"], path="src/repro/core/tree.py")
        assert len(fired(findings, "R7")) == 1
        assert "Observability facade" in findings[0].message

    def test_relative_import_construction_fires(self):
        # FileContext.imports cannot resolve relative imports, so the
        # rule must catch the bare class name too
        findings = lint("""
            from ..obs.registry import MetricsRegistry

            def make():
                return MetricsRegistry()
            """, ["R7"], path="src/repro/core/tree.py")
        assert len(fired(findings, "R7")) == 1

    def test_obs_package_may_construct_instruments(self):
        findings = lint("""
            from .tracing import Tracer

            def make(clock):
                return Tracer(clock)
            """, ["R7"], path="src/repro/obs/core.py")
        assert findings == []

    def test_unrelated_class_sharing_name_is_clean(self):
        findings = lint("""
            from wiretap.trace import Tracer

            def make():
                return Tracer()
            """, ["R7"], path="src/repro/core/tree.py")
        assert findings == []

    def test_using_the_facade_is_clean(self):
        findings = lint("""
            def record(obs) -> None:
                obs.registry.counter("mvpbt.evict.count").inc()
                obs.tracer.emit("mvpbt.gc.purge_leaf", removed=3)
            """, ["R7"])
        assert findings == []


# ------------------------------------------------------- R12 dead surface

def lint_checkout(tmp_path, files, *, strict=False):
    """Write a little checkout (``src/repro``, ``tests/``, ``bench/``, ...)
    under ``tmp_path`` and lint its ``src/repro`` with every rule but R13,
    whose table describes this repository, not a fixture checkout."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    linter = Linter([rule() for rule in ALL_RULES if rule.id != "R13"],
                    Project(), strict=strict)
    return linter.lint_paths([tmp_path / "src" / "repro"])


ORPHAN = {
    "src/repro/mod.py": """
        def orphan() -> int:
            return 1
        """,
    "tests/test_mod.py": """
        from repro.mod import orphan
        assert orphan() == 1
        """,
}


class TestR12DeadSurface:
    def test_def_named_only_by_tests_fires(self, tmp_path):
        findings = lint_checkout(tmp_path, ORPHAN)
        assert [(f.rule, f.line) for f in findings] == [("R12", 2)]
        assert "orphan" in findings[0].message

    def test_methods_properties_and_names_fire(self, tmp_path):
        findings = lint_checkout(tmp_path, {"src/repro/mod.py": """
            LIMIT = 3
            UNUSED = 4
            _PRIVATE = 5

            class Box:
                @property
                def size(self) -> int:
                    return LIMIT

                def _helper(self) -> None:
                    pass
            """, "examples/use.py": "Box\n"})
        assert sorted(f.message.split()[0] for f in fired(findings, "R12")) \
            == ["Box.size", "UNUSED"]

    @pytest.mark.parametrize("caller", [
        ("examples/demo.py", "from repro.mod import orphan\norphan()\n"),
        ("bench/trace.py",
         'BOUNDARIES = (("core", "repro.mod", None, ("orphan",)),)\n'),
        ("README.md", "Usage:\n\n```python\nfrom repro.mod import orphan"
                      "\n```\n"),
        ("src/repro/other.py", "from .mod import orphan\n\n\n"
                               "def run() -> int:\n    return orphan()\n"),
    ], ids=["examples-call", "bench-string", "readme-block", "src-call"])
    def test_a_program_caller_silences(self, tmp_path, caller):
        path, source = caller
        files = {**ORPHAN, path: source}
        if path.startswith("src/"):
            files["examples/x.py"] = "from repro.other import run\n"
        assert fired(lint_checkout(tmp_path, files), "R12") == []

    def test_use_in_its_own_module_silences(self, tmp_path):
        findings = lint_checkout(tmp_path, {"src/repro/mod.py": """
            def orphan() -> int:
                return 1

            VALUE = orphan()
            """, "examples/x.py": "import repro.mod\nrepro.mod.VALUE\n"})
        assert fired(findings, "R12") == []

    def test_init_reexport_alone_still_fires(self, tmp_path):
        files = {**ORPHAN, "src/repro/__init__.py": """
            from .mod import orphan

            __all__ = ["orphan"]
            """}
        hits = fired(lint_checkout(tmp_path, files), "R12")
        assert [h.message.split()[0] for h in hits] == ["orphan"]

    def test_a_tests_dir_under_bench_does_not_count(self, tmp_path):
        files = {**ORPHAN, "bench/tests/test_run.py":
                 "from repro.mod import orphan\norphan()\n"}
        assert len(fired(lint_checkout(tmp_path, files), "R12")) == 1

    def test_justified_pragma_suppresses(self, tmp_path):
        files = {**ORPHAN, "src/repro/mod.py": """
            def orphan() -> int:  # reprolint: disable=R12 -- tests/test_mod.py
                return 1
            """}
        assert lint_checkout(tmp_path, files, strict=True) == []

    def test_pragma_on_a_name_with_a_caller_is_stale(self, tmp_path):
        files = {**ORPHAN, "src/repro/mod.py": """
            def orphan() -> int:  # reprolint: disable=R12 -- tests/test_mod.py
                return 1
            """, "examples/demo.py": "from repro.mod import orphan\n"}
        findings = lint_checkout(tmp_path, files, strict=True)
        assert [(f.rule, f.line) for f in findings] == [("S2", 2)]

    def test_unparseable_readme_block_is_reported(self, tmp_path):
        files = {**ORPHAN,
                 "README.md": "Intro\n\n```python\nprint(\n```\n"}
        hits = fired(lint_checkout(tmp_path, files), "R12")
        readme = [h for h in hits if h.path.endswith("README.md")]
        assert len(readme) == 1 and "does not parse" in readme[0].message
        assert readme[0].line == 4

    def test_files_outside_a_repro_package_are_never_flagged(self, tmp_path):
        target = tmp_path / "tools" / "helper.py"
        target.parent.mkdir()
        target.write_text("def orphan() -> int:\n    return 1\n")
        linter = Linter([rule_by_id("R12")()], Project())
        assert linter.lint_paths([target.parent]) == []


# ------------------------------------------------------------ R13 tombstones

TOMBSTONES = r13_tombstones.TOMBSTONES

#: one line that each entry's pattern matches, in table order.  Each is
#: split into adjacent literals, so this file spells no deleted name.
SAMPLES = (
    "run_all" ".py",
    "batch_scan" " = True",
    "class _Busy" "Guard:",
    "ordering" "_checks = 1",
    "class _R" "un:",
    "def _take" "_below():",
    "rows = session.scan" "_limit(1)",
    "_candidates" "_point(key)",
    "def reset" "_stats():",
    "bloom" "_fpr = 0.01",
    "registry.counter" '("device.reads")',
    "Threaded" "Gather()",
    "# reprolint: disable-next" "=R10 -- why",
    "use_prefix" "_bloom=True",
    "Clock" "Policy()",
    'cost: "Cost' 'Model | None"',
    "if clock is" " not None:",
    "Range" "Partitioner()",
    "x = 1",
    "x = 1",
    "extra" "_committed=()",
    "engine.pull_index" "_slices(leg)",
    "batch" "_scan(txn)",
    "except WriteConflict" "Error:",
    "Sharded" "Backend",
    "store.pre" "allocate()",
    "Server" "Backend",
    "isinstance(store, SIAS" "Table)",
    "resolve_candidates" "_heap(txn)",
    "if ix.is_" "mvpbt:",
    "ReferenceMode" ".LOGICAL",
    "tree._add_build" "_record(key)",
    "vacuum" "_heap(table, mgr)",
    "layer = Indirection" "Layer(clock)",
)


def plant(root, scope, sample, lines):
    """Write ``lines`` copies of ``sample`` under ``scope``: into the file
    a file scope names, else into a new file in the directory."""
    target = root / scope
    if not Path(scope).suffix:
        target = target / "planted.txt"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text((sample + "\n") * lines)


def lint_tombstone(tmp_path, monkeypatch, entry):
    """R13 over the checkout under ``tmp_path``, with ``entry`` its whole
    table."""
    init = tmp_path / "src" / "repro" / "__init__.py"
    init.parent.mkdir(parents=True, exist_ok=True)
    init.touch()
    monkeypatch.setattr(r13_tombstones, "TOMBSTONES", (entry,))
    linter = Linter([rule_by_id("R13")()], Project())
    return linter.lint_paths([tmp_path / "src" / "repro"])


def entries(keep=lambda entry: True):
    return [pytest.param(entry, sample, id=f"{n}-pr{entry.pr}")
            for n, (entry, sample) in enumerate(zip(TOMBSTONES, SAMPLES))
            if keep(entry)]


class TestR13Tombstones:
    def test_each_sample_matches_its_entry(self):
        assert len(SAMPLES) == len(TOMBSTONES)
        for entry, sample in zip(TOMBSTONES, SAMPLES):
            assert re.search(entry.regex, sample), entry.regex

    @pytest.mark.parametrize("entry, sample", entries())
    def test_a_line_over_budget_fires_where_it_is(self, tmp_path,
                                                  monkeypatch, entry,
                                                  sample):
        plant(tmp_path, entry.scope[0], sample, entry.at_most + 1)
        findings = lint_tombstone(tmp_path, monkeypatch, entry)
        assert [(f.rule, f.line) for f in findings] \
            == [("R13", n) for n in range(1, entry.at_most + 2)]
        assert Path(findings[0].path).is_relative_to(tmp_path)
        assert f"PR {entry.pr}: {entry.reason}" in findings[0].message

    @pytest.mark.parametrize("entry, sample",
                             entries(lambda entry: bool(entry.exclude)))
    def test_an_excluded_path_stays_silent(self, tmp_path, monkeypatch,
                                           entry, sample):
        for path in entry.exclude:
            plant(tmp_path, path, sample, 1)
        assert lint_tombstone(tmp_path, monkeypatch, entry) == []

    @pytest.mark.parametrize("entry, sample",
                             entries(lambda entry: bool(entry.at_most)))
    def test_a_count_within_budget_is_silent(self, tmp_path, monkeypatch,
                                             entry, sample):
        plant(tmp_path, entry.scope[0], sample, entry.at_most)
        assert lint_tombstone(tmp_path, monkeypatch, entry) == []

    @pytest.mark.parametrize("entry, sample",
                             entries(lambda entry: bool(entry.at_least)))
    def test_a_count_under_budget_fires_at_the_entry(self, tmp_path,
                                                     monkeypatch, entry,
                                                     sample):
        plant(tmp_path, entry.scope[0], sample, entry.at_least - 1)
        findings = lint_tombstone(tmp_path, monkeypatch, entry)
        assert len(findings) == 1
        assert findings[0].path == r13_tombstones.__file__
        table = Path(r13_tombstones.__file__).read_text().splitlines()
        assert table[findings[0].line - 1].strip() == "Tombstone("
        assert f"at least {entry.at_least} required" \
            in findings[0].message
        assert f"PR {entry.pr}:" in findings[0].message

    @pytest.mark.parametrize("entry, sample",
                             entries(lambda entry: entry.regex == "^"))
    def test_an_empty_file_still_exists(self, tmp_path, monkeypatch,
                                        entry, sample):
        plant(tmp_path, entry.scope[0], sample, 0)
        assert len(lint_tombstone(tmp_path, monkeypatch, entry)) == 1

    def test_dot_directories_and_caches_are_not_walked(self, tmp_path,
                                                       monkeypatch):
        entry, sample = TOMBSTONES[-1], SAMPLES[-1]
        for hidden in (".venv", "__pycache__"):
            plant(tmp_path, f"src/{hidden}", sample, 1)
        assert lint_tombstone(tmp_path, monkeypatch, entry) == []

    def test_no_repro_package_no_walk(self, tmp_path, monkeypatch):
        plant(tmp_path, "src", SAMPLES[-1], 1)
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "helper.py").write_text("x = 1\n")
        monkeypatch.setattr(r13_tombstones, "TOMBSTONES", TOMBSTONES[-1:])
        linter = Linter([rule_by_id("R13")()], Project())
        assert linter.lint_paths([tmp_path / "tools"]) == []


# ------------------------------------------------------ engine & suppressions

class TestSuppressions:
    def test_same_line_pragma_suppresses(self):
        findings = lint("""
            import time
            x = time.time()  # reprolint: disable=R1 -- fixture
            """, ["R1"])
        assert findings == []

    def test_disable_next_suppresses_following_line(self):
        findings = lint("""
            import time
            # reprolint: disable-next=R1 -- fixture
            x = time.time()
            """, ["R1"])
        assert findings == []

    def test_slug_and_all_tokens_work(self):
        base = "import time\nx = time.time()  # reprolint: disable={} -- f\n"
        assert lint(base.format("determinism"), ["R1"]) == []
        assert lint(base.format("all"), ["R1"]) == []

    def test_wrong_rule_does_not_suppress(self):
        findings = lint("""
            import time
            x = time.time()  # reprolint: disable=R4 -- wrong rule
            """, ["R1", "R4"])
        assert len(fired(findings, "R1")) == 1

    def test_unknown_rule_token_is_s1(self):
        findings = lint("""
            x = 1  # reprolint: disable=R99 -- no such rule
            """, ["R1"])
        assert len(fired(findings, "S1")) == 1
        assert "unknown rule" in findings[0].message

    @pytest.mark.parametrize("token", ["R6", "typing", "R8",
                                       "concurrency-confinement"])
    def test_deleted_rule_token_is_s1(self, token):
        """R6 and R8 are gone: a pragma still naming one is stale."""
        linter = Linter([rule() for rule in ALL_RULES], Project())
        findings = linter.lint_source(
            f"x = 1  # reprolint: disable={token} -- stale\n")
        assert [f.rule for f in findings] == ["S1"]
        assert "unknown rule" in findings[0].message

    def test_missing_justification_is_s1_only_under_strict(self):
        source = """
            import time
            x = time.time()  # reprolint: disable=R1
            """
        assert lint(source, ["R1"]) == []
        strict = lint(source, ["R1"], strict=True)
        assert len(fired(strict, "S1")) == 1
        assert "justification" in strict[0].message

    def test_suppressed_count_is_tracked(self):
        linter = Linter([rule_by_id("R1")()], Project())
        linter.lint_source(
            "import time\nx = time.time()  # reprolint: disable=R1 -- f\n")
        assert linter.suppressed_count == 1

    def test_pragma_in_string_literal_is_ignored(self):
        sups = parse_suppressions(
            's = "# reprolint: disable=R1 -- not a pragma"\n')
        assert sups == []


class TestEngine:
    def test_syntax_error_becomes_e0_finding(self):
        findings = lint("def broken(:\n", ["R1"])
        assert findings[0].rule == "E0"

    def test_finding_to_dict_round_trips(self):
        finding = lint("import time\nx = time.time()\n", ["R1"])[0]
        data = finding.to_dict()
        assert data["rule"] == "R1" and data["line"] == 2
        assert Finding(**data) == finding

    def test_project_load_parses_error_hierarchy(self):
        project = Project.load(REPO_ROOT / "src")
        assert "WorkloadError" in project.repro_errors
        assert "ReproError" in project.repro_errors
        assert "ValueError" not in project.repro_errors

    def test_project_load_parses_record_types(self):
        project = Project.load(REPO_ROOT / "src")
        assert project.record_types == ("REGULAR", "REPLACEMENT", "ANTI",
                                        "TOMBSTONE", "REGULAR_SET")

    def test_all_rules_have_unique_ids(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids)) == 11


# ----------------------------------------------------------------- CLI gate

class TestCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def add(a: int, b: int) -> int:\n"
                          "    return a + b\n")
        assert main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bad_file_exits_one_per_rule(self, tmp_path, capsys):
        bad = {
            "R1": "import time\nx = time.time()\n",
            "R2": ("def d(r):\n"
                   "    if r.rtype is RecordType.REGULAR:\n"
                   "        return 1\n"
                   "    elif r.rtype is RecordType.ANTI:\n"
                   "        return 2\n"),
            "R3": ("def f(run):\n"
                   "    run = PersistedRun(1, 2, 3)\n"
                   "    run.page_nos = []\n"),
            "R4": "fh = open('x')\n",
            "R5": "raise ValueError('x')\n",
            "R7": "from repro.obs.tracing import Tracer\n"
                  "t = Tracer(None)\n",
        }
        for rule_id, source in bad.items():
            target = tmp_path / f"bad_{rule_id.lower()}.py"
            target.write_text(source)
            code = main([str(target), "--strict", "--select", rule_id])
            out = capsys.readouterr().out
            assert code == 1, f"{rule_id} fixture did not gate"
            assert rule_id in out

    def test_json_output_shape(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\nx = time.time()\n")
        assert main([str(target), "--format", "json",
                     "--select", "R1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        record = payload["findings"][0]
        assert record["rule"] == "R1"
        assert record["line"] == 2
        assert set(record) == {"rule", "name", "path", "line", "col",
                               "message", "hint"}

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_select_and_ignore_filter_rules(self, tmp_path, capsys):
        target = tmp_path / "mixed.py"
        target.write_text("import time\nx = time.time()\n"
                          "raise ValueError('x')\n")
        assert main([str(target), "--select", "R5", "--ignore", "R5"]) == 2
        capsys.readouterr()
        assert main([str(target), "--select", "R1,R5"]) == 1
        out = capsys.readouterr().out
        assert "R1" in out and "R5" in out

    @pytest.mark.parametrize("flag", ["--select", "--ignore"])
    @pytest.mark.parametrize("rule_id", ["R6", "R8"])
    def test_deleted_rule_is_a_usage_error(self, flag, rule_id, tmp_path,
                                           capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target), flag, rule_id]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        ids = [line.split()[0]
               for line in capsys.readouterr().out.splitlines()]
        assert ids == ["R1", "R2", "R3", "R4", "R5", "R7", "R9", "R10",
                       "R11", "R12", "R13"]


# ------------------------------------------------------------- the real tree

class TestRealTree:
    def test_src_repro_is_clean_under_strict(self, capsys):
        """The CI gate: the shipped engine tree has zero findings."""
        code = main([str(SRC_REPRO), "--strict"])
        out = capsys.readouterr().out
        assert code == 0, f"reprolint regressions:\n{out}"

    def test_tools_tree_is_clean_for_invariant_rules(self, capsys):
        """reprolint lints itself under every rule."""
        code = main([str(REPO_ROOT / "tools"), "--strict"])
        out = capsys.readouterr().out
        assert code == 0, f"reprolint self-lint regressions:\n{out}"
