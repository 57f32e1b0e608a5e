"""Fixture tests for reprolint's whole-program concurrency rules.

R9 (lock-order), R10 (slot-confinement) and R11 (2PC protocol) run over
a cross-module call graph, so their fixtures are little *trees* written
under ``tmp_path`` (with a ``repro/`` path component so module scoping
applies) rather than single snippets.  Every rule has good fixtures
(must stay silent) and bad fixtures (must fire with the expected
diagnostic); the suite also pins the S2 stale-pragma semantics and the
CLI edge contract (E0 on unparseable input, JSON schema stability,
exit codes 0/1/2).
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import Linter, Project, rule_by_id  # noqa: E402
from tools.reprolint.cli import main  # noqa: E402


def lint_tree(tmp_path, files, rule_ids, *, strict=True):
    """Write a fixture tree and lint it with a rule subset."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    rules = [rule_by_id(rid)() for rid in rule_ids]
    linter = Linter(rules, Project(), strict=strict)
    return linter.lint_paths([tmp_path]), linter


def fired(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# ------------------------------------------------------------ R9 lock-order

class TestR9LockOrder:
    def test_ascending_acquisition_is_clean(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/good.py": """
            class App:
                def __init__(self) -> None:
                    self.mgr = OrderedLock("app.mgr", RANK_TXN_MANAGER)
                    self.log = OrderedLock("app.log", RANK_TXN_COMMITLOG)

                def ok(self) -> None:
                    with self.mgr:
                        with self.log:
                            pass
            """}, ["R9"])
        assert fired(findings, "R9") == []

    def test_descending_acquisition_fires(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/bad.py": """
            class App:
                def __init__(self) -> None:
                    self.q = OrderedLock("app.queue", RANK_GROUP_QUEUE)
                    self.mgr = OrderedLock("app.mgr", RANK_TXN_MANAGER)

                def bad(self) -> None:
                    with self.q:
                        with self.mgr:
                            pass
            """}, ["R9"])
        hits = fired(findings, "R9")
        assert len(hits) == 1
        assert "ranks must strictly ascend" in hits[0].message
        assert "app.mgr" in hits[0].message

    def test_transitive_violation_across_modules_fires(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/app/front.py": """
                class Front:
                    def __init__(self) -> None:
                        self.log = OrderedLock("front.log",
                                               RANK_TXN_COMMITLOG)
                        self.helper = Helper()

                    def bad(self) -> None:
                        with self.log:
                            self.helper.refresh()
                """,
            "repro/app/back.py": """
                class Helper:
                    def __init__(self) -> None:
                        self.lock = OrderedLock("helper.lock",
                                                RANK_TXN_MANAGER)

                    def refresh(self) -> None:
                        with self.lock:
                            pass
                """}, ["R9"])
        hits = fired(findings, "R9")
        assert len(hits) == 1
        assert "may transitively acquire" in hits[0].message
        assert "helper.lock" in hits[0].message
        assert hits[0].path.endswith("front.py")

    def test_transitive_ascending_call_is_clean(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/app/front.py": """
                class Front:
                    def __init__(self) -> None:
                        self.mgr = OrderedLock("front.mgr",
                                               RANK_TXN_MANAGER)
                        self.helper = Helper()

                    def ok(self) -> None:
                        with self.mgr:
                            self.helper.refresh()
                """,
            "repro/app/back.py": """
                class Helper:
                    def __init__(self) -> None:
                        self.lock = OrderedLock("helper.lock",
                                                RANK_GROUP_QUEUE)

                    def refresh(self) -> None:
                        with self.lock:
                            pass
                """}, ["R9"])
        assert fired(findings, "R9") == []

    def test_unranked_raw_lock_fires(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/raw.py": """
            import threading

            class App:
                def __init__(self) -> None:
                    self.m = threading.Lock()
            """}, ["R9"])
        hits = fired(findings, "R9")
        assert len(hits) == 1
        assert "has no rank" in hits[0].message

    def test_annotated_raw_lock_is_ranked(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/raw.py": """
            import threading

            class App:
                def __init__(self) -> None:
                    # reprolint: lock-rank=TXN_MANAGER
                    self.m = threading.Lock()
                    self.log = OrderedLock("app.log", RANK_TXN_COMMITLOG)

                def ok(self) -> None:
                    with self.m:
                        with self.log:
                            pass
            """}, ["R9"])
        assert fired(findings, "R9") == []

    def test_unknown_rank_name_fires(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/raw.py": """
            import threading

            class App:
                def __init__(self) -> None:
                    # reprolint: lock-rank=NO_SUCH_RANK
                    self.m = threading.Lock()
            """}, ["R9"])
        hits = fired(findings, "R9")
        assert len(hits) == 1
        assert "unknown rank" in hits[0].message

    def test_leaf_lock_allows_nothing_inside(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/leaf.py": """
            import threading

            class App:
                def __init__(self) -> None:
                    # reprolint: lock-rank=LEAF
                    self.m = threading.Lock()
                    self.q = OrderedLock("app.q", RANK_GROUP_QUEUE)

                def bad(self) -> None:
                    with self.m:
                        with self.q:
                            pass
            """}, ["R9"])
        hits = fired(findings, "R9")
        assert len(hits) == 1
        assert "rank LEAF" in hits[0].message

    def test_reentrant_annotation_allows_reacquisition(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/re.py": """
            import threading

            class App:
                def __init__(self) -> None:
                    # reprolint: lock-rank=TXN_MANAGER, reentrant
                    self.r = threading.RLock()

                def ok(self) -> None:
                    with self.r:
                        with self.r:
                            pass
            """}, ["R9"])
        assert fired(findings, "R9") == []

    def test_note_acquired_seeds_callee_summary(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/note.py": """
            def publish() -> None:
                note_acquired(RANK_ENGINE, "serve.engine")

            class App:
                def __init__(self) -> None:
                    self.q = OrderedLock("app.q", RANK_GROUP_QUEUE)

                def bad(self) -> None:
                    with self.q:
                        publish()
            """}, ["R9"])
        hits = fired(findings, "R9")
        assert len(hits) == 1
        assert "serve.engine" in hits[0].message

    def test_condition_inherits_lock_rank(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/cond.py": """
            import threading

            class App:
                def __init__(self) -> None:
                    # reprolint: lock-rank=GROUP_QUEUE
                    self.m = threading.Lock()
                    self.cond = threading.Condition(self.m)
                    self.mgr = OrderedLock("app.mgr", RANK_TXN_MANAGER)

                def bad(self) -> None:
                    with self.cond:
                        with self.mgr:
                            pass
            """}, ["R9"])
        hits = fired(findings, "R9")
        assert len(hits) == 1
        assert "app.mgr" in hits[0].message

    def test_program_finding_respects_pragma(self, tmp_path):
        findings, linter = lint_tree(tmp_path, {"repro/app/sup.py": """
            class App:
                def __init__(self) -> None:
                    self.q = OrderedLock("app.q", RANK_GROUP_QUEUE)
                    self.mgr = OrderedLock("app.mgr", RANK_TXN_MANAGER)

                def tolerated(self) -> None:
                    with self.q:
                        # reprolint: disable-next=R9 -- fixture: documented inversion
                        with self.mgr:
                            pass
            """}, ["R9"])
        assert fired(findings, "R9") == []
        assert fired(findings, "S2") == []      # the pragma is *used*
        assert linter.suppressed_count == 1


# ------------------------------------------------------ R10 slot-confinement

class TestR10SlotConfinement:
    SCHED = """
        class FairScheduler:
            def slot(self, kind: str) -> "FairScheduler":
                return self

            def __enter__(self) -> "FairScheduler":
                return self

            def __exit__(self, *exc: object) -> None:
                pass
        """

    def test_slot_confined_access_is_clean(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/sched.py": self.SCHED,
            "repro/serve/good.py": """
                from .sched import FairScheduler

                class Handler:
                    def __init__(self, db: object) -> None:
                        self._db = db
                        self._sched = FairScheduler()

                    def read(self, key: int) -> int:
                        with self._sched.slot("read"):
                            return self._db.lookup(key)

                    def component(self) -> object:
                        return self._db.clock
                """}, ["R10"])
        assert fired(findings, "R10") == []

    def test_out_of_slot_call_fires(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/bad.py": """
                class Handler:
                    def __init__(self, db: object) -> None:
                        self._db = db

                    def read(self, key: int) -> int:
                        return self._db.lookup(key)
                """}, ["R10"])
        hits = fired(findings, "R10")
        assert len(hits) == 1
        assert "calls lookup() through engine state" in hits[0].message

    def test_deep_read_and_store_fire(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/bad.py": """
                class Handler:
                    def __init__(self, db: object) -> None:
                        self._db = db

                    def peek(self) -> int:
                        return self._db.catalog.version

                    def poke(self) -> None:
                        self._db.dirty = True
                """}, ["R10"])
        hits = fired(findings, "R10")
        assert len(hits) == 2
        assert any("reads engine-internal state" in h.message
                   for h in hits)
        assert any("writes to engine state" in h.message for h in hits)

    def test_confinement_is_inherited_through_helpers(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/sched.py": self.SCHED,
            "repro/serve/good.py": """
                from .sched import FairScheduler

                class Handler:
                    def __init__(self, db: object) -> None:
                        self._db = db
                        self._sched = FairScheduler()

                    def read(self, key: int) -> int:
                        with self._sched.slot("read"):
                            return self._fetch(key)

                    def _fetch(self, key: int) -> int:
                        return self._db.lookup(key)
                """}, ["R10"])
        assert fired(findings, "R10") == []

    def test_helper_with_out_of_slot_caller_fires(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/sched.py": self.SCHED,
            "repro/serve/bad.py": """
                from .sched import FairScheduler

                class Handler:
                    def __init__(self, db: object) -> None:
                        self._db = db
                        self._sched = FairScheduler()

                    def read(self, key: int) -> int:
                        with self._sched.slot("read"):
                            return self._fetch(key)

                    def sneak(self, key: int) -> int:
                        return self._fetch(key)

                    def _fetch(self, key: int) -> int:
                        return self._db.lookup(key)
                """}, ["R10"])
        hits = fired(findings, "R10")
        assert len(hits) == 1
        assert hits[0].message.endswith("outside the engine slot")

    def test_confined_annotation_marks_root(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/bad.py": """
                class Cache:
                    def __init__(self, engine: object) -> None:
                        # reprolint: confined=engine
                        self._engine = engine

                    def flush(self) -> None:
                        self._engine.flush()
                """}, ["R10"])
        hits = fired(findings, "R10")
        assert len(hits) == 1
        assert "calls flush() through engine state" in hits[0].message

    #: the serving layout: handle and server bound in a base ``__init__``,
    #: the scheduler reached through the server, a generic base class
    CORE = """
        from typing import Generic, TypeVar

        from .sched import FairScheduler

        E = TypeVar("E")

        class ServerCore(Generic[E]):
            def __init__(self, engine: E) -> None:
                self.engine = engine
                self.scheduler = FairScheduler()

        class SessionCore(Generic[E]):
            def __init__(self, server: "ServerCore[E]") -> None:
                self._server = server
                # reprolint: confined=engine
                self._engine = server.engine

            def count(self) -> int:
                {core_with}
                    return self._engine.count()

        class Session({base}):
            def read(self, key: int) -> int:
                {binding_with}
                    return self._engine.lookup(key)
        """
    IN_SLOT = 'with self._server.scheduler.slot("oltp"):'
    BASES = pytest.mark.parametrize(
        "base", ["SessionCore", 'SessionCore["Database"]'])

    @BASES
    def test_base_bound_handle_in_slot_is_clean(self, tmp_path, base):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/sched.py": self.SCHED,
            "repro/serve/core.py": self.CORE.format(
                base=base, core_with=self.IN_SLOT,
                binding_with=self.IN_SLOT),
        }, ["R10"])
        assert fired(findings, "R10") == []

    @BASES
    def test_base_bound_handle_out_of_slot_fires_in_core_and_binding(
            self, tmp_path, base):
        findings, _ = lint_tree(tmp_path, {
            "repro/serve/sched.py": self.SCHED,
            "repro/serve/core.py": self.CORE.format(
                base=base, core_with="if True:", binding_with="if True:"),
        }, ["R10"])
        messages = sorted(h.message for h in fired(findings, "R10"))
        assert len(messages) == 2
        assert "SessionCore.count calls count() through engine" \
            in messages[1]
        assert "Session.read calls lookup() through engine" in messages[0]

    def test_out_of_slot_call_in_the_sliced_scan_fires(self, tmp_path):
        """The real serve layer, once as it is and once with the sliced
        scan's row fetch moved out of its slot: the state machine lives
        in the generic core, and R10 still sees into it."""
        serve = REPO_ROOT / "src" / "repro" / "serve"
        files = {f"repro/serve/{path.name}": path.read_text()
                 for path in serve.glob("*.py")}
        findings, _ = lint_tree(tmp_path / "as_is", files, ["R10"])
        assert fired(findings, "R10") == []
        in_slot = ('with self._guard(), self._server.scheduler.slot("scan"):'
                   '\n                    rows = engine.fetch_rows(')
        session = files["repro/serve/session.py"]
        assert session.count(in_slot) == 1
        files["repro/serve/session.py"] = session.replace(
            in_slot, in_slot.replace(
                ', self._server.scheduler.slot("scan")', ""))
        findings, _ = lint_tree(tmp_path / "mutated", files, ["R10"])
        messages = [h.message for h in fired(findings, "R10")]
        assert messages == [
            "repro.serve.session.SessionCore.batch_scan calls fetch_rows() "
            "through engine state outside the engine slot"]

    def test_outside_serve_is_out_of_scope(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {
            "repro/shard/router.py": """
                class Router:
                    def __init__(self, db: object) -> None:
                        self._db = db

                    def read(self, key: int) -> int:
                        return self._db.lookup(key)
                """}, ["R10"])
        assert fired(findings, "R10") == []


# --------------------------------------------------------- R11 2PC protocol

_GOOD_ROUTER = """
    class Router:
        def commit(self, txn: object) -> None:
            touched = self.touched(txn)
            if len(touched) == 1:
                self.shards[touched[0]].txn.commit(txn)
                for j in self.others(touched):
                    self.shards[j].txn.finish_commit(txn)
            elif touched:
                for k in touched:
                    self.shards[k].durability.append_prepare(txn)
                self.coordinator.log_decision(txn.id)
                for k in touched:
                    self.shards[k].durability.append_commit_marker(txn.id)
                for db in self.shards:
                    db.txn.finish_commit(txn)
            else:
                for db in self.shards:
                    db.txn.finish_commit(txn)
            self.coordinator.finish(txn.id)

        def abort(self, txn: object) -> None:
            for db in self.shards:
                db.txn.abort(txn)
            self.coordinator.finish(txn.id)
    """


class TestR11Protocol:
    def test_protocol_shaped_commit_is_clean(self, tmp_path):
        findings, _ = lint_tree(
            tmp_path, {"repro/shard/router.py": _GOOD_ROUTER}, ["R11"])
        assert fired(findings, "R11") == []

    def test_marker_before_decision_fires(self, tmp_path):
        bad = _GOOD_ROUTER.replace(
            "self.coordinator.log_decision(txn.id)\n"
            "                for k in touched:\n"
            "                    self.shards[k].durability"
            ".append_commit_marker(txn.id)",
            "for k in touched:\n"
            "                    self.shards[k].durability"
            ".append_commit_marker(txn.id)\n"
            "                self.coordinator.log_decision(txn.id)")
        assert "log_decision" in bad      # the rewrite really swapped them
        findings, _ = lint_tree(
            tmp_path, {"repro/shard/router.py": bad}, ["R11"])
        hits = fired(findings, "R11")
        assert len(hits) == 1
        assert "P, M, D" in hits[0].message
        assert "not an accepted decision order" in hits[0].message

    def test_decision_before_prepares_fires(self, tmp_path):
        """The commit point must follow every PREPARE: a decision taken
        first would commit slices that are not yet durable."""
        prepares = ("                for k in touched:\n"
                    "                    self.shards[k].durability"
                    ".append_prepare(txn)\n")
        decision = "                self.coordinator.log_decision(txn.id)\n"
        bad = _GOOD_ROUTER.replace(prepares + decision, decision + prepares)
        assert bad != _GOOD_ROUTER      # the rewrite really swapped them
        findings, _ = lint_tree(
            tmp_path, {"repro/shard/router.py": bad}, ["R11"])
        hits = fired(findings, "R11")
        assert len(hits) == 1
        assert "D, P, M, F, E" in hits[0].message
        assert "not an accepted decision order" in hits[0].message

    def test_missing_decision_fires(self, tmp_path):
        bad = _GOOD_ROUTER.replace(
            "                self.coordinator.log_decision(txn.id)\n", "")
        findings, _ = lint_tree(
            tmp_path, {"repro/shard/router.py": bad}, ["R11"])
        hits = fired(findings, "R11")
        assert len(hits) == 1
        assert "P, M, F, E" in hits[0].message

    def test_op_call_outside_coordinator_layer_fires(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/serve/sneaky.py": """
            class Committer:
                def flush(self, txn: object) -> None:
                    self.durability.append_prepare(txn)
            """}, ["R11"])
        hits = fired(findings, "R11")
        assert len(hits) == 1
        assert "outside the coordinator layer" in hits[0].message

    def test_missing_abort_fires(self, tmp_path):
        bad = _GOOD_ROUTER.split("    def abort")[0]
        findings, _ = lint_tree(
            tmp_path, {"repro/shard/router.py": bad}, ["R11"])
        hits = fired(findings, "R11")
        assert len(hits) == 1
        assert "has no abort()" in hits[0].message

    def test_abort_without_coordinator_release_fires(self, tmp_path):
        bad = _GOOD_ROUTER.replace(
            "            for db in self.shards:\n"
            "                db.txn.abort(txn)\n"
            "            self.coordinator.finish(txn.id)",
            "            for db in self.shards:\n"
            "                db.txn.abort(txn)")
        findings, _ = lint_tree(
            tmp_path, {"repro/shard/router.py": bad}, ["R11"])
        hits = fired(findings, "R11")
        assert len(hits) == 1
        assert "release the coordinator" in hits[0].message

    def test_raise_terminated_paths_are_exempt(self, tmp_path):
        guarded = _GOOD_ROUTER.replace(
            "            touched = self.touched(txn)",
            "            touched = self.touched(txn)\n"
            "            if not self.active(txn):\n"
            "                raise ValueError(txn)")
        findings, _ = lint_tree(
            tmp_path, {"repro/shard/router.py": guarded}, ["R11"])
        assert fired(findings, "R11") == []


# -------------------------------------------------------- S2 stale pragmas

class TestS2StalePragmas:
    def test_stale_pragma_fires_under_strict(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/clean.py": """
            def add(a: int, b: int) -> int:
                # reprolint: disable-next=R1 -- nothing here fires R1
                return a + b
            """}, ["R1"], strict=True)
        hits = fired(findings, "S2")
        assert len(hits) == 1
        assert "matches no finding" in hits[0].message

    def test_stale_pragma_silent_without_strict(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/clean.py": """
            def add(a: int, b: int) -> int:
                # reprolint: disable-next=R1 -- nothing here fires R1
                return a + b
            """}, ["R1"], strict=False)
        assert fired(findings, "S2") == []

    def test_used_pragma_is_not_stale(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/used.py": """
            import time

            def stamp() -> float:
                # reprolint: disable-next=R1 -- fixture wall clock
                return time.time()
            """}, ["R1"], strict=True)
        assert fired(findings, "S2") == []
        assert fired(findings, "R1") == []

    def test_pragma_for_deselected_rule_is_not_judged(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/other.py": """
            def add(a: int, b: int) -> int:
                # reprolint: disable-next=R4 -- only judged when R4 runs
                return a + b
            """}, ["R1"], strict=True)
        assert fired(findings, "S2") == []

    def test_all_pragma_is_not_judged(self, tmp_path):
        findings, _ = lint_tree(tmp_path, {"repro/app/allp.py": """
            def add(a: int, b: int) -> int:
                # reprolint: disable-next=all -- blanket: cannot be judged
                return a + b
            """}, ["R1"], strict=True)
        assert fired(findings, "S2") == []


# ------------------------------------------------------------- CLI edges

class TestCLIEdges:
    def test_unparseable_file_is_e0_and_exits_one(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "E0" in out and "cannot parse" in out

    def test_e0_keeps_the_json_schema(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "summary"}
        assert set(payload["summary"]) == {"files_checked", "findings",
                                           "suppressed"}
        record = payload["findings"][0]
        assert set(record) == {"rule", "name", "path", "line", "col",
                               "message", "hint"}
        assert record["rule"] == "E0"

    def test_exit_code_contract(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def add(a: int, b: int) -> int:\n"
                         "    return a + b\n")
        assert main([str(clean)]) == 0                       # no findings
        capsys.readouterr()
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nx = time.time()\n")
        assert main([str(bad), "--select", "R1"]) == 1       # findings
        capsys.readouterr()
        assert main([str(clean), "--select", "R99"]) == 2    # usage error
        assert "unknown rule" in capsys.readouterr().err

    def test_json_findings_are_sorted_and_stable(self, tmp_path, capsys):
        (tmp_path / "b.py").write_text("import time\nx = time.time()\n"
                                       "y = time.time()\n")
        (tmp_path / "a.py").write_text("import time\nz = time.time()\n")
        assert main([str(tmp_path), "--format", "json",
                     "--select", "R1"]) == 1
        first = json.loads(capsys.readouterr().out)
        assert main([str(tmp_path), "--format", "json",
                     "--select", "R1"]) == 1
        second = json.loads(capsys.readouterr().out)
        assert first == second
        keys = [(f["path"], f["line"]) for f in first["findings"]]
        assert keys == sorted(keys)

    def test_program_rules_listed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R9", "R10", "R11"):
            assert f"{rule_id} " in out
