"""Shared type aliases for the repro library.

Search keys are heterogeneous tuples (one element per indexed column), so
their precise element types are workload-defined; ``Key`` spells that out
once instead of scattering ``tuple[Any, ...]`` — or worse, bare ``tuple`` —
through every signature.  mypy strict's ``disallow_any_generics``
rejects the bare spellings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, TypeAlias

if TYPE_CHECKING:
    from .storage.recordid import RecordID
    from .txn.transaction import Transaction

#: a search key: one element per indexed column, workload-defined types
Key: TypeAlias = tuple[Any, ...]

#: the §4.3 partition-internal composite order: (key, -ts, -seq)
SortKey: TypeAlias = tuple[Any, ...]

#: a base-table row: one element per schema column
Row: TypeAlias = tuple[Any, ...]

#: one reconciled REGULAR_SET member: (vid, rid, ts, seq) — §4.7
SetEntry: TypeAlias = "tuple[int, RecordID, int, int]"

#: JSON-shaped diagnostics payloads (``describe()``/``stats()``)
JSONDict: TypeAlias = dict[str, Any]

#: commit/abort hook: runs with the transaction pre-status-flip
TxnHook: TypeAlias = "Callable[[Transaction], None]"
