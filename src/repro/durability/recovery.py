"""Crash recovery (DESIGN.md §11.4): manifest load + WAL replay.

The whole durable state is read with two sequential passes — the manifest
(the first page of both slots, then the rest of the newer slot), then the
WAL file's surviving pages in page order — each reading contiguous pages
as one request per run.
Partition pages are never read: fences, key bounds, counts and the page
numbers of each partition's filter block come out of the manifest, so the
recovered tree answers its first query through the buffer pool like a warm
one would, with cold leaves and cold filters — a partition reads its
filter block the first time a query reaches one of its filters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from ..core.records import MVPBTRecord
from ..index.runs import PersistedRun
from ..storage.pagefile import PageFile
from .manifest import ManifestState, ManifestStore, PartitionMeta
from .wal import KIND_COMMIT, KIND_PREPARE, KIND_RECORD, WriteAheadLog

if TYPE_CHECKING:
    from ..buffer.pool import BufferPool
    from ..core.partition import PersistedPartition


class DurableState(NamedTuple):
    """Everything read back from the device after a crash."""

    store: ManifestStore
    state: ManifestState | None          #: None: no flip ever completed
    wal: WriteAheadLog
    committed: set[int]                  #: all durably-committed txids
    records: dict[str, list[MVPBTRecord]]  #: per-index P_N replay sets
    next_txid: int                       #: safe next transaction id


def read_durable_state(manifest_file: PageFile, wal_file: PageFile,
                       slot_pages: int) -> DurableState:
    """Load the manifest and replay the WAL (the two sequential passes).

    The committed set combines both durability channels: txids the latest
    manifest flip recorded as decided-committed (below its watermark,
    neither aborted nor still active at the flip — their WAL markers may
    have been truncated since), plus txids with a surviving WAL COMMIT
    marker.  Everything else is aborted: a transaction without a durable
    marker was either never acknowledged or committed having written
    nothing (an elided commit, DESIGN.md §11.3) — and a transaction with
    no effects reads the same committed or aborted.

    A crash between a checkpoint's image and its flip leaves a record
    above the old floor twice; replay keeps one per ``(index, seq)``, the
    earlier copy.  The image is ``P_N`` after GC, whose purges re-link
    the records they keep (``core/gc.py``): an imaged copy replayed beside
    the originals of the versions it no longer points past would leave a
    superseded version visible.
    """
    store, state = ManifestStore.attach(manifest_file, slot_pages)
    wal, entries = WriteAheadLog.recover(wal_file)

    floors = ({name: ix.wal_floor for name, ix in state.indexes.items()}
              if state is not None else {})
    committed: set[int] = set()
    by_seq: dict[str, dict[int, MVPBTRecord]] = {}
    max_prepared = max_record_ts = 0
    for entry in entries:
        if entry.kind == KIND_COMMIT:
            committed.add(entry.txid)
        elif entry.kind == KIND_PREPARE:
            # durable but undecided: records replay (visibility is gated
            # by commit status), the outcome comes from the last touched
            # shard's marker — but the id was issued, so it is never
            # handed out again
            max_prepared = max(max_prepared, entry.txid)
        elif entry.kind == KIND_RECORD:
            record = entry.record
            if record.ts > max_record_ts:
                max_record_ts = record.ts
            # records below the index's floor were made partition-durable
            # by an eviction; replaying them would duplicate state
            if entry.lsn >= floors.get(entry.index_name, 0):
                by_seq.setdefault(entry.index_name, {}).setdefault(
                    record.seq, record)

    if state is not None:
        undecided = set(state.aborted_txids) | set(state.active_txids)
        committed.update(t for t in range(1, state.txid_watermark)
                         if t not in undecided)

    next_txid = max(
        state.txid_watermark if state is not None else 1,
        max(committed, default=0) + 1,
        max_prepared + 1,
        max_record_ts + 1)
    records = {name: list(replay.values())
               for name, replay in by_seq.items()}
    return DurableState(store, state, wal, committed, records, next_txid)


def restore_partition(meta: PartitionMeta, file: PageFile,
                      pool: "BufferPool") -> "PersistedPartition":
    """Re-attach one persisted partition from its manifest record,
    reading none of its pages (its filter block loads on first use)."""
    from ..core.partition import PersistedPartition
    run: PersistedRun[MVPBTRecord] = PersistedRun.restore(
        file, pool, page_nos=meta.page_nos, fences=meta.fences,
        record_count=meta.record_count, size_bytes=meta.size_bytes,
        min_key=meta.min_key, max_key=meta.max_key,
        trailer_page_nos=meta.filter_pages)
    return PersistedPartition(number=meta.number, run=run,
                              min_ts=meta.min_ts, max_ts=meta.max_ts)
