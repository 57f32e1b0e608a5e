"""Rule registry.

Each rule module defines one ``Rule`` subclass; ``ALL_RULES`` instantiates
them in id order.  Adding a rule = add a module, list it here, document it
in DESIGN.md §12, and give it good/bad fixtures in
``tests/unit/test_reprolint.py``.
"""

from __future__ import annotations

from ..engine import Rule
from .r1_determinism import DeterminismRule
from .r2_exhaustive import RecordExhaustiveRule
from .r3_immutability import ImmutabilityRule
from .r4_storage import StorageBypassRule
from .r5_errors import ErrorDisciplineRule
from .r7_time import TimeDisciplineRule
from .r9_lock_order import LockOrderRule
from .r10_confinement import SlotConfinementRule
from .r11_protocol import ProtocolExhaustivenessRule
from .r12_dead_surface import DeadSurfaceRule
from .r13_tombstones import TombstoneRule

ALL_RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    RecordExhaustiveRule,
    ImmutabilityRule,
    StorageBypassRule,
    ErrorDisciplineRule,
    TimeDisciplineRule,
    LockOrderRule,
    SlotConfinementRule,
    ProtocolExhaustivenessRule,
    DeadSurfaceRule,
    TombstoneRule,
)


def rule_by_id(token: str) -> type[Rule]:
    token = token.strip().lower()
    for rule in ALL_RULES:
        if token in (rule.id.lower(), rule.name.lower()):
            return rule
    raise KeyError(token)  # reprolint: disable=R5 -- reprolint is a standalone stdlib-only tool; it must not import repro.errors


__all__ = ["ALL_RULES", "rule_by_id", "DeterminismRule",
           "RecordExhaustiveRule", "ImmutabilityRule", "StorageBypassRule",
           "ErrorDisciplineRule", "TimeDisciplineRule", "LockOrderRule",
           "SlotConfinementRule", "ProtocolExhaustivenessRule",
           "DeadSurfaceRule", "TombstoneRule"]
