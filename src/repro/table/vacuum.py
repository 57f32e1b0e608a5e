"""SIAS's page-freeing pass of tuple-level vacuum (paper §3.4).

Which versions are dead is decided once, for every store, by
:meth:`~repro.table.base.VersionStore.vacuum`.  SIAS pages are immutable,
so its dead versions stay where they are until a whole page is dead;
this pass, run after the shared rule, frees such pages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import VacuumResult

if TYPE_CHECKING:
    from .sias import SIASTable


def vacuum_sias(table: SIASTable, result: VacuumResult) -> None:
    """Free every flushed page of ``table`` whose versions are all among
    ``result.removed_rids``, and drop it from the buffer pool."""
    dead_by_page: dict[int, set[int]] = {}
    for rid in result.removed_rids:
        dead_by_page.setdefault(rid.page, set()).add(rid.slot)
    for page_no, slots in dead_by_page.items():
        if page_no in table._tail:
            continue  # tail pages are still being filled
        if not table.file.has_contents(page_no):
            continue
        page = table.file.peek(page_no)  # bookkeeping read, no I/O charge
        live = {slot for slot, _ in page.items()}
        if live and live.issubset(slots):
            table.pool.discard(table.file, page_no)
            table.file.free_page(page_no)
            result.pages_freed += 1
