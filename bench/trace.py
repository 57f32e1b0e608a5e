"""Outside-in span tracer: wraps the program's public callables in place.

``BOUNDARIES`` maps public callables of ``repro`` to layer names (the
``src/repro`` packages).  :meth:`Tracer.install` replaces each with a
timing wrapper for the traced pass only and :meth:`Tracer.uninstall`
puts the originals back; nothing under ``src/`` knows about it.

A span is (name, layer, start, end, parent, request id).  Parents come
from a thread-local stack; the request id is the one the client proxy
assigned at ``begin()``, stored on the op's root span and inherited by
everything under it.  A generator-returning callable is timed per
``next()`` — the time between two ``next()`` calls belongs to the
consumer — and its creations are counted separately.  Spans stay in
memory (four parallel arrays) until the pass ends; the all-workloads run
then writes them as JSONL next to its result file.
Per-record hot paths (visibility checks, key codec) are deliberately
not boundaries: they get counts from ``MVPBT.stats``, not spans.

The benchmark runs one client thread; the span arrays are not guarded
against concurrent appends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import threading
from array import array
from time import perf_counter_ns, thread_time_ns
from typing import Any, Callable, Iterator

#: methods every WorkloadTxn adapter implements
_TXN = ("commit", "abort", "insert", "select", "select_hits",
        "range_select", "range_hits", "update", "delete", "scan_limit",
        "analytic_rows")
_SESSION = ("begin", "commit", "abort", "insert", "select", "select_hits",
            "range_hits", "range_select", "batch_scan")

#: (layer, module, class or None for a module-level function, callables)
BOUNDARIES: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("workloads", "repro.workloads.backend", "_DatabaseTxn", _TXN),
    ("workloads", "repro.workloads.backend", "_ShardSessionTxn", _TXN),
    ("workloads", "repro.workloads.backend", "DatabaseBackend",
     ("begin", "vacuum")),
    ("workloads", "repro.workloads.backend", "ShardServerBackend",
     ("begin", "vacuum")),
    ("serve", "repro.serve.shard_server", "ShardSession",
     _SESSION + ("update_hit", "delete_hit")),
    ("serve", "repro.serve.shard_server", "ShardServer", ("vacuum",)),
    ("serve", "repro.serve.session", "Session",
     _SESSION + ("update_row", "delete_row")),
    ("serve", "repro.serve.scheduler", "FairScheduler",
     ("acquire", "release")),
    ("serve", "repro.serve.group_commit", "GroupCommitter", ("commit",)),
    ("shard", "repro.shard.router", "ShardedDatabase",
     ("begin", "commit", "abort", "insert", "update_hit", "delete_hit",
      "select", "select_hits_tagged", "range_select", "range_hits_tagged",
      "pull_index_slices", "vacuum")),
    ("shard", "repro.shard.coordinator", "ShardCoordinator",
     ("begin", "log_decision", "finish")),
    ("engine", "repro.engine.database", "Database",
     ("begin", "insert", "update_row", "delete_row", "select",
      "select_hits", "range_select", "range_hits", "vacuum")),
    ("engine", "repro.engine.executor", "Executor",
     ("lookup", "scan", "scan_stream")),
    ("txn", "repro.txn.manager", "TransactionManager",
     ("begin", "begin_adopted", "commit", "finish_commit", "abort")),
    ("core", "repro.core.tree", "MVPBT",
     ("search", "range_scan", "scan_limit", "cursor", "insert",
      "update_nonkey", "update_key", "delete", "evict_partition",
      "merge_partitions")),
    ("core", "repro.core.serialization", None, ("decode_leaf_batch",)),
    ("index", "repro.index.runs", "PersistedRun", ("search", "load_page")),
    ("index", "repro.index.filters", "BloomFilter", ("query",)),
    ("buffer", "repro.buffer.pool", "BufferPool",
     ("get", "get_or_create", "put", "flush")),
    ("table", "repro.table.sias", "SIASTable",
     ("insert", "update", "delete", "fetch")),
    ("table", "repro.table.vacuum", None, ("vacuum_sias",)),
    ("durability", "repro.durability.wal", "WriteAheadLog",
     ("log", "log_group", "log_prepare")),
    ("durability", "repro.durability.manifest", "ManifestStore",
     ("write",)),
    ("durability", "repro.durability.recovery", None,
     ("read_durable_state",)),
    ("storage", "repro.storage.pagefile", "PageFile",
     ("read_page", "write_page", "append_extents",
      "flush_pages_sequential")),
    ("sim", "repro.sim.device", "SimulatedDevice", ("read", "write")),
)

_CALIBRATION_CALLS = 2_000
_CALIBRATION_BATCHES = 15


def resolve_boundaries() -> list[tuple[str, str, Any, str, Any]]:
    """``(layer, span name, owner, attribute, callable)`` for every row of
    ``BOUNDARIES``; a name that no longer exists raises, so a renamed
    public function fails loudly instead of going silently untraced."""
    resolved = []
    for layer, module_name, class_name, attrs in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        prefix = "" if class_name is None else f"{class_name}."
        for attr in attrs:
            fn = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(fn):
                raise TypeError(
                    f"{module_name}.{prefix}{attr} is not a plain function")
            resolved.append((layer, prefix + attr, owner, attr, fn))
    return resolved


class _TracedIter:
    """A generator behind a boundary: one span per ``next()``."""

    __slots__ = ("_it", "_next")

    def __init__(self, it: Iterator[Any],
                 traced_next: Callable[[Iterator[Any]], Any]) -> None:
        self._it = it
        self._next = traced_next

    def __iter__(self) -> "_TracedIter":
        return self

    def __next__(self) -> Any:
        return self._next(self._it)

    def close(self) -> None:
        self._it.close()  # type: ignore[attr-defined]


class Tracer:
    """In-memory span store plus the in-place wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: root span index -> the request id the client proxy gave the op
        self.root_request: dict[int, int] = {}
        #: generator creations per span-name id
        self.calls: dict[int, int] = {}
        #: hits point lookups returned (the tree counts them with scan hits)
        self.search_hits = 0
        #: thread CPU inside root spans (what `unattributed` is measured
        #: against)
        self.root_cpu_ns = 0
        self._root_cpu0 = 0
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        #: per-span wrapper cost inside / outside the span's own interval
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    # ------------------------------------------------------------- recording

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def root_name(self, name: str) -> int:
        return self._name(name, "workloads")

    def _stack(self) -> list[int]:
        try:
            return self._local.stack  # type: ignore[no-any-return]
        except AttributeError:
            stack: list[int] = []
            self._local.stack = stack
            return stack

    def open_root(self, nid: int, request_id: int) -> int:
        """Open a per-op root span (called by the client proxy)."""
        stack = self._stack()
        idx = len(self.start)
        self.root_request[idx] = request_id
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(idx)
        self._root_cpu0 = thread_time_ns()
        self.start.append(perf_counter_ns())
        return idx

    def close_root(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.root_cpu_ns += thread_time_ns() - self._root_cpu0
        self._stack().pop()

    def _traced(self, fn: Callable[..., Any], nid: int) -> Callable[..., Any]:
        """``fn`` with a span around every call.  The body is written out
        flat (no helper calls): it runs millions of times per pass."""
        local = self._local
        name_ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end
        now = perf_counter_ns
        counts_hits = self.names[nid] == "MVPBT.search"

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if counts_hits:
                self.search_hits += len(result)
            return result

        return traced

    def _wrap(self, fn: Callable[..., Any], nid: int) -> Callable[..., Any]:
        if not inspect.isgeneratorfunction(fn):
            return self._traced(fn, nid)
        calls = self.calls
        traced_next = self._traced(next, nid)

        def traced_gen(*args: Any, **kwargs: Any) -> _TracedIter:
            calls[nid] = calls.get(nid, 0) + 1
            return _TracedIter(fn(*args, **kwargs), traced_next)

        return traced_gen

    # ----------------------------------------------------- install / restore

    def install(self) -> None:
        """Wrap every boundary in place, then calibrate the wrapper."""
        for layer, name, owner, attr, fn in resolve_boundaries():
            wrapper = self._wrap(fn, self._name(name, layer))
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                # `from x import f` re-exports hold the original object
                for module in list(sys.modules.values()):
                    if (module is not owner
                            and getattr(module, "__name__", "").startswith(
                                "repro.")
                            and module.__dict__.get(attr) is fn):
                        self._patch(module, attr, wrapper)
        self._calibrate()

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _calibrate(self) -> None:
        """Measure what one wrapper costs inside its own span (stamps and
        the call) and outside it (bookkeeping charged to the parent):
        the median over short batches, so that a burst of interference
        on the box does not end up subtracted from every span."""
        def noop() -> None:
            return None

        wrapped = self._traced(noop, self._name("calibration.noop", "bench"))
        n = _CALIBRATION_CALLS
        first = len(self.start)
        inner, outer = [], []
        for _ in range(_CALIBRATION_BATCHES):
            t0 = perf_counter_ns()
            for _ in range(n):
                noop()
            bare = (perf_counter_ns() - t0) / n
            t0 = perf_counter_ns()
            for _ in range(n):
                wrapped()
            total = (perf_counter_ns() - t0) / n
            inside = sum(self.end[i] - self.start[i]
                         for i in range(first, first + n)) / n
            inner.append(max(0.0, inside - bare))
            outer.append(max(0.0, total - inside))
            for column in (self.name_id, self.start, self.end, self.parent):
                del column[first:]
        self.inner_ns = statistics.median(inner)
        self.outer_ns = statistics.median(outer)

    # ------------------------------------------------------------- reporting

    def aggregate(self) -> dict[str, Any]:
        """Per-name totals, parent>child edge totals and structural errors.

        Durations are net of tracing: a span's measured interval holds
        its own wrapper's ``inner`` cost plus ``inner + outer`` for every
        span below it, and that is subtracted.  Self time is the net
        duration minus the net durations of the direct children; per-name
        sums are clamped at 0.  An edge also carries the total duration of
        the parent spans that have such a child (e.g. the commits that
        logged a 2PC decision).  The errors list what must never happen:
        a span left open, one that leaves its parent's interval, children
        that outlast their parent.
        """
        n = len(self.start)
        start, end, parent, name_id = (self.start, self.end, self.parent,
                                       self.name_id)
        inner, per_span = self.inner_ns, self.inner_ns + self.outer_ns
        errors: list[str] = []
        below = [0] * n         # spans anywhere under this one
        for i in range(n - 1, -1, -1):
            if parent[i] >= 0:
                below[parent[i]] += below[i] + 1
        net = [end[i] - start[i] - inner - below[i] * per_span
               for i in range(n)]
        child_raw = [0] * n
        child_net = [0.0] * n
        #: (parent, child) name ids -> [n, child net, parent net, last parent]
        edges: dict[tuple[int, int], list[float]] = {}
        for i in range(n):
            if not end[i]:
                errors.append(f"span {i} never closed")
                continue
            p = parent[i]
            if p < 0:
                continue
            if start[i] < start[p] or end[i] > end[p]:
                errors.append(f"span {i} not inside its parent {p}")
            child_raw[p] += end[i] - start[i]
            child_net[p] += net[i]
            key = (name_id[p], name_id[i])
            edge = edges.get(key)
            if edge is None:
                edge = edges[key] = [0, 0.0, 0.0, -1]
            edge[0] += 1
            edge[1] += net[i]
            if edge[3] != p:
                edge[2] += net[p]
                edge[3] = p
        by_id = [[0, 0.0, 0.0, 0] for _ in self.names]
        for i in range(n):
            agg = by_id[name_id[i]]
            raw = end[i] - start[i]
            agg[0] += 1
            agg[1] += net[i]
            agg[2] += net[i] - child_net[i]
            agg[3] += raw
            if child_raw[i] > raw:
                errors.append(f"span {i}: children outlast it")
        if self._stack():
            errors.append(f"{len(self._stack())} spans left open")
        by_name = {}
        for nid, (count, dur, self_ns, raw_dur) in enumerate(by_id):
            if not count and not self.calls.get(nid):
                continue
            by_name[self.names[nid]] = {
                "layer": self.layers[nid], "n": count,
                "dur_ns": max(0.0, dur), "self_ns": max(0.0, self_ns),
                "raw_dur_ns": raw_dur, "calls": self.calls.get(nid, 0)}
        return {
            "by_name": by_name,
            "edges": {f"{self.names[p]}>{self.names[c]}":
                      {"n": count, "dur_ns": max(0.0, dur),
                       "parents_dur_ns": max(0.0, pdur)}
                      for (p, c), (count, dur, pdur, _last) in edges.items()},
            "errors": errors[:20],
        }

    def write_jsonl(self, path: str) -> None:
        """One span per line; a span carries its root's request id (0 for
        work outside every op, e.g. opening CH's held snapshot)."""
        request = [0] * len(self.start)
        named = [f'"name": {json.dumps(name)}, "layer": {json.dumps(layer)}'
                 for name, layer in zip(self.names, self.layers)]
        with open(path, "w") as out:
            for i in range(len(self.start)):
                parent = self.parent[i]
                request[i] = (request[parent] if parent >= 0
                              else self.root_request.get(i, 0))
                out.write(f'{{"id": {i}, {named[self.name_id[i]]}, '
                          f'"start_ns": {self.start[i]}, '
                          f'"end_ns": {self.end[i]}, "parent": {parent}, '
                          f'"request": {request[i]}}}\n')
