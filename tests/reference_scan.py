"""Reference model of the index-only range scan (paper §4.3/§4.4).

The record-at-a-time cascade that ``MVPBT.scan_chunks`` must equal
extensionally: every partition's records merged on the §4.3 composite
order — key ascending, then partition number, timestamp and sequence
*descending* — and fed one by one through the Algorithm 3 visibility
check.  Built on the partitions' public iterators only, and read-only: no
partition filter, no zone map, no fence promise, no GC flagging, no
statistics and no simulated-clock charge — so agreement with it also shows
that everything the pipeline skips was sound to skip.

With ``candidates=True`` it is the reference of a version-oblivious tree
(``index_only_visibility=False``): the same merge, with every matter record
and every set entry in range a hit.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.core.records import HAS_MATTER, MVPBTRecord, RecordType
from repro.core.tree import MVPBT, SearchHit
from repro.core.visibility import Visibility, VisibilityChecker
from repro.txn.transaction import Transaction
from repro.types import Key

_MergeItem = tuple[Key, int, int, int, MVPBTRecord]


def _source(number: int,
            records: Iterable[MVPBTRecord]) -> Iterator[_MergeItem]:
    # the 4-prefix is globally unique (tree-wide ``seq``, distinct
    # partition numbers): a comparison never reaches the record
    for record in records:
        yield (record.key, -number, -record.ts, -record.seq, record)


def reference_scan(tree: MVPBT, txn: Transaction, lo: Key | None = None,
                   hi: Key | None = None, *, lo_incl: bool = True,
                   hi_incl: bool = True, limit: int | None = None,
                   candidates: bool = False) -> list[SearchHit]:
    """What ``tree.range_scan`` (``tree.scan_limit`` with a ``limit``)
    must return for ``txn`` — or, with ``candidates``, on a
    version-oblivious tree."""
    mem = tree.memory_partition
    sources = [_source(mem.number, (
        record for _leaf, record in mem.scan(lo, hi, lo_incl=lo_incl,
                                             hi_incl=hi_incl)))]
    for part in tree.persisted_partitions:
        sources.append(_source(part.number, part.scan(
            lo, hi, lo_incl=lo_incl, hi_incl=hi_incl)))
    checker = VisibilityChecker(txn.snapshot, tree.manager.commit_log,
                                tree.mode)
    hits: list[SearchHit] = []
    for *_order, record in heapq.merge(*sources):
        if record.rtype is RecordType.REGULAR_SET:
            entries = (record.set_entries if candidates
                       else checker.visible_set_entries(record))
            hits.extend(SearchHit(record.key, rid, vid, ts, record.payload)
                        for vid, rid, ts, _seq in entries)
        elif (HAS_MATTER[record.rtype] if candidates
              else checker.check(record) is Visibility.VISIBLE):
            hits.append(SearchHit(record.key, record.rid_new, record.vid,
                                  record.ts, record.payload))
    return hits if limit is None else hits[:limit]
