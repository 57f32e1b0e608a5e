"""reprolint — AST-based engine-invariant checker for the MV-PBT repro.

The test suite can only *sample* the engine's global invariants; reprolint
checks them structurally, on every line, before a fault-injection sweep has
to find the violation the hard way:

=====  ==================  ====================================================
rule   name                invariant
=====  ==================  ====================================================
R1     determinism         no wall-clock / unseeded randomness in engine code;
                           simulated time comes from ``repro.sim.clock``
R2     record-exhaustive   every if/elif or ``match`` dispatch on
                           ``RecordType`` covers all members or ends in an
                           explicit raise
R3     immutability        persisted partitions/runs are never mutated outside
                           their defining modules and builders
R4     storage-bypass      no direct ``open()``/``os.*``/``mmap`` I/O — every
                           byte flows through SimulatedDevice/PageFile so
                           DeviceStats and the Fig. 8 cost model stay truthful
R5     error-discipline    every ``raise`` constructs a ``ReproError``
                           subclass; no bare/swallowed excepts in durability
                           paths
R7     time-discipline     no ``time``/``datetime`` imports; tracing and
                           metrics objects are constructed only in
                           ``repro/obs/`` and ``repro/sim/``
R9     lock-order          whole-program §15.2 rank verification: ranks
                           strictly ascend along every static acquisition
                           path; raw mutexes carry ``lock-rank=`` annotations;
                           calls under a lock are checked against transitive
                           may-acquire summaries
R10    slot-confinement    engine state reachable from ``repro/serve/`` is
                           accessed only under the FairScheduler engine slot
                           (confinement inherited through always-in-slot
                           helpers)
R11    2pc-protocol        every static path through the shard layer's 2PC
                           functions follows the decision protocol
                           (P -> D -> M -> F -> finish), ops only callable
                           from the coordinator layer
R12    dead-surface        every public name of ``repro`` is named by a caller
                           file (``src/``, ``bench/``, ``benchmarks/``,
                           ``examples/``, README python blocks); ``tests/``
                           and ``__init__`` re-exports never count
=====  ==================  ====================================================

R1-R7 are per-file visitor rules; R9-R12 are :class:`ProgramRule`
passes.  R9-R11 run over a cross-module call graph with per-function
lock summaries (``callgraph.py`` + ``summaries.py``, DESIGN.md §17);
R12 reads the caller files around the package.  R6 and R8 are
retired ids, never reused: ``mypy --strict`` in CI checks annotations,
and R9's rank on every raw lock covers threading confinement.

Findings can be suppressed per line with a justified pragma::

    x = time.time()  # reprolint: disable=R1 -- host wall-clock for report header

``--strict`` additionally rejects suppressions without a justification,
and reports stale pragmas (S2) that no longer suppress anything.
"""

from __future__ import annotations

from .engine import FileContext, Finding, Linter, Project, Rule
from .rules import ALL_RULES, rule_by_id

__version__ = "1.0.0"

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "Linter",
    "Project",
    "Rule",
    "rule_by_id",
]
