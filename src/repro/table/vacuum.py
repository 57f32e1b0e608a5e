"""SIAS's page-freeing pass of tuple-level vacuum (paper §3.4).

Which versions are dead is decided once, for every store, by
:meth:`~repro.table.base.VersionStore.vacuum`.  SIAS pages are immutable,
so its dead versions stay where they are until a whole page is dead;
this pass, run after the shared rule, frees such pages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import Chain, VacuumResult

if TYPE_CHECKING:
    from .sias import SIASTable


def vacuum_sias(table: SIASTable, survivors: list[Chain],
                result: VacuumResult) -> None:
    """Free every flushed page of ``table`` on which no version of
    ``survivors`` (every chain's versions the rule kept) lives, and drop
    it from the buffer pool; tail pages are still being filled."""
    live = {rid.page for kept in survivors for rid, _version in kept}
    for page_no in range(table.file.max_page_no):
        if (page_no in live or page_no in table._tail
                or not table.file.has_contents(page_no)):
            continue
        table.pool.discard(table.file, page_no)
        table.file.free_page(page_no)
        result.pages_freed += 1
