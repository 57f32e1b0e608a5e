"""The ``P_N`` write-ahead log (DESIGN.md §11.2).

Committed mutations of the in-memory partition are the only MV-PBT state
not covered by the partition manifest; they are logged here at commit time
and replayed into a fresh ``P_N`` during recovery.

Layout: entries are packed back-to-back into page-sized byte images.  An
append writes only the 512-byte sectors of the tail page it changed, so
its device cost follows the bytes appended, not the page size; the image
is *append-only*, so a torn tail write can only corrupt the suffix holding
not-yet-acknowledged entries.  An append that fits a page never straddles
two: if the tail's remaining space is too small the tail is sealed first,
making the common commit one device write.  Each entry carries its own
LSN and CRC32::

    u16  payload length
    u64  LSN            (1-based, monotonically increasing; 0 for PAD)
    u8   kind           (0 = RECORD, 1 = COMMIT, 2 = PREPARE, 3 = NOTE,
                         4 = PAD)
    ...  payload
    u32  CRC32 over (length .. payload)

Sector alignment (DESIGN.md §11.2): an append closes with a PAD entry
(zero payload, no LSN of its own, skipped by :func:`parse_entries`) that
fills its last sector, so the next append's request starts exactly where
this one's ended — a sequential device write that re-writes no durable
sector.  The pad is spent only when it is no larger than the append's own
entry bytes (log density stays >= 50 %); a gap too small for any entry is
padded one sector further, and a pad that would cross the page seals the
tail instead.

RECORD payload: u16 index-name length + name + one MV-PBT record in the
:mod:`repro.core.serialization` wire format.  COMMIT payload: u64 txid.
Every commit that made something durable gets a COMMIT marker; a commit
that wrote nothing is not logged, but for one txid in 32 (the horizon
marker, DESIGN.md §11.3).

Two marker kinds serve the sharding layer (DESIGN.md §16): a PREPARE
marker (u64 txid, like COMMIT) makes one shard's slice of a cross-shard
transaction durable *without* deciding it — the decision is the COMMIT
marker of the last touched shard's commit append, in that shard's log —
and a NOTE entry carries an opaque payload (the coordinator's durable
shard-layout snapshots).  Single-node recovery treats a
prepared-but-undecided transaction exactly like a missing COMMIT marker:
aborted.

Replay reads the log file's live pages in page-number order, one device
request per run of contiguous pages within an extent
(:meth:`PageFile.read_pages_sequential`), parses each page's entries,
orders them by LSN and keeps the single contiguous LSN run — per-entry
CRCs stop the scan at the first torn or stale byte, so anything after the
crash frontier is ignored.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, NamedTuple

from ..core.records import MVPBTRecord
from ..core.serialization import decode_record, encode_record
from ..errors import StorageError
from ..sim.device import SECTOR_BYTES
from ..storage.pagefile import PageFile

KIND_RECORD = 0
KIND_COMMIT = 1
KIND_PREPARE = 2
KIND_NOTE = 3
KIND_PAD = 4

_HEAD = struct.Struct("<HQB")   # payload length, lsn, kind
_CRC = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
#: size of an entry with an empty payload — the smallest PAD
MIN_ENTRY_BYTES = _HEAD.size + _CRC.size


class WALEntry(NamedTuple):
    """One decoded log entry."""

    lsn: int
    kind: int
    txid: int                    #: marker's transaction (COMMIT/PREPARE)
    index_name: str              #: owning index (RECORD only)
    record: MVPBTRecord | None   #: logged mutation (RECORD only)
    note: bytes = b""            #: opaque payload (NOTE only)


def _encode_entry(lsn: int, kind: int, payload: bytes) -> bytes:
    body = _HEAD.pack(len(payload), lsn, kind) + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def _record_entry(index_name: str, record: MVPBTRecord) -> tuple[int, bytes]:
    name = index_name.encode("utf-8")
    return KIND_RECORD, _U16.pack(len(name)) + name + encode_record(record)


def _marker_entry(kind: int, txid: int) -> tuple[int, bytes]:
    return kind, _U64.pack(txid)


def parse_entries(data: bytes) -> list[WALEntry]:
    """Decode the valid entry prefix of one page image.

    Stops (without raising) at the first truncated header, bad CRC or
    undecodable payload — exactly the torn-tail semantics replay needs.
    A CRC-valid PAD entry is stepped over and never returned.
    """
    entries: list[WALEntry] = []
    pos = 0
    n = len(data)
    while pos + _HEAD.size + _CRC.size <= n:
        plen, lsn, kind = _HEAD.unpack_from(data, pos)
        end = pos + _HEAD.size + plen + _CRC.size
        if end > n:
            break
        (crc,) = _CRC.unpack_from(data, end - _CRC.size)
        if zlib.crc32(data[pos:end - _CRC.size]) & 0xFFFFFFFF != crc:
            break
        payload = data[pos + _HEAD.size:end - _CRC.size]
        try:
            if kind == KIND_PAD:
                pass
            elif kind in (KIND_COMMIT, KIND_PREPARE):
                (txid,) = _U64.unpack_from(payload, 0)
                entries.append(WALEntry(lsn, kind, txid, "", None))
            elif kind == KIND_NOTE:
                entries.append(WALEntry(lsn, kind, 0, "", None, payload))
            elif kind == KIND_RECORD:
                (name_len,) = _U16.unpack_from(payload, 0)
                name = payload[2:2 + name_len].decode("utf-8")
                record, _ = decode_record(payload, 2 + name_len)
                entries.append(WALEntry(lsn, kind, 0, name, record))
            else:
                break
        except (StorageError, struct.error, UnicodeDecodeError):
            break
        pos = end
    return entries


class WriteAheadLog:
    """Append-only log over one :class:`~repro.storage.pagefile.PageFile`.

    ``end_lsn`` is the LSN the *next* entry will get; everything below it
    has been durably acknowledged (each append call returns only after its
    page writes completed).
    """

    def __init__(self, file: PageFile) -> None:
        self.file = file
        self.end_lsn = 1
        #: sealed pages as (page_no, first_lsn, last_lsn); truncation frees
        #: pages whose last_lsn falls below every index's replay floor
        self._pages: list[tuple[int, int, int]] = []
        self._tail_no: int | None = None
        #: bytes of the tail page already durable (its image lives in the
        #: page file; the next append lands at this offset)
        self._tail_len = 0
        self._tail_first = 0
        self._tail_last = 0
        #: txids of COMMIT markers staged by :meth:`stage_commit_marker`,
        #: waiting to ride on the next durable append
        self._staged: list[int] = []
        self.entries_appended = 0
        #: COMMIT markers written (a staged one counts when it rides out)
        self.commit_markers = 0
        #: page touches (one per page an append wrote into)
        self.pages_written = 0
        #: device bytes those touches actually wrote (whole sectors)
        self.bytes_written = 0
        #: log bytes spent on PAD entries (the price of aligned appends)
        self.pad_bytes = 0
        self.pages_freed = 0
        #: durable append calls — the simulated fsync count.  Group commit
        #: divides this by the mean group size (fsyncs/commit < 1)
        self.appends = 0

    @property
    def sealed_bytes(self) -> int:
        """Bytes of the live sealed pages — what replay would read, less
        the tail."""
        return len(self._pages) * self.file.page_size

    # ---------------------------------------------------------------- append

    def log(self, records: Iterable[tuple[str, MVPBTRecord]],
            commit_txid: int | None = None) -> None:
        """Append RECORD entries (plus an optional COMMIT marker) durably.

        Pages are written in LSN order; the call returns only once every
        touched sector hit the device, so a normal return *is* the
        durability acknowledgement.  A crash mid-call persists an entry
        prefix — replay's contiguous-LSN rule keeps exactly that prefix,
        and the missing COMMIT marker keeps the transaction invisible.
        """
        self.log_group([(records, commit_txid)])

    def log_group(self,
                  groups: Iterable[tuple[Iterable[tuple[str, MVPBTRecord]],
                                         int | None]]) -> None:
        """Append several transactions' entries in **one** durable write.

        ``groups`` is a sequence of ``(records, commit_txid)`` pairs — one
        per committing transaction, in group order.  Each transaction's
        RECORD entries immediately precede its COMMIT marker, and LSNs run
        contiguously across the whole batch, so a torn group write
        persists an entry *prefix*: every transaction of the group either
        has its complete record set plus marker durable, or is missing its
        marker and recovers as aborted.  No half-transaction can become
        visible, and the committed subset is always a prefix of the group
        (the group-commit recovery invariant, DESIGN.md §15.4).

        One call is one simulated fsync regardless of how many
        transactions it covers — the entire point of group commit.
        """
        entries: list[tuple[int, bytes]] = []
        for records, commit_txid in groups:
            entries.extend(_record_entry(name, record)
                           for name, record in records)
            if commit_txid is not None:
                entries.append(_marker_entry(KIND_COMMIT, commit_txid))
        self._append(entries)

    def log_prepare(self, records: Iterable[tuple[str, MVPBTRecord]],
                    txid: int) -> None:
        """Append RECORD entries plus a PREPARE marker in one durable write.

        The shard-commit first phase (DESIGN.md §16.3): the transaction's
        slice on this shard becomes durable, but remains *undecided* — a
        recovery that finds the PREPARE without a matching COMMIT (here or
        in the last touched shard's log) aborts the transaction.
        """
        entries = [_record_entry(name, record) for name, record in records]
        entries.append(_marker_entry(KIND_PREPARE, txid))
        self._append(entries)

    def log_note(self, payload: bytes) -> None:
        """Append one opaque NOTE entry durably (coordinator layout log)."""
        self._append([(KIND_NOTE, payload)])

    def stage_commit_marker(self, txid: int) -> None:
        """Queue a COMMIT marker to ride on the next durable append.

        No device I/O: for an outcome that is already durable elsewhere
        (shard-commit phase two — the last touched shard's COMMIT marker
        is the authority, DESIGN.md §16.3).  A crash before the next
        append loses the marker, never the outcome.
        """
        self._staged.append(txid)

    def _append(self, entries: list[tuple[int, bytes]]) -> None:
        """Encode entries and write them durably behind the tail, closed by
        a PAD to the next sector boundary when the pad rule allows one."""
        if self._staged:
            entries = [_marker_entry(KIND_COMMIT, txid)
                       for txid in self._staged] + entries
        if not entries:
            return
        capacity = self.file.page_size
        blobs = [_encode_entry(lsn, kind, payload)
                 for lsn, (kind, payload) in enumerate(entries, self.end_lsn)]
        largest = max(map(len, blobs))
        if largest > capacity:
            raise StorageError(
                f"WAL entry of {largest} bytes exceeds the "
                f"{capacity}-byte log page")
        total = sum(map(len, blobs))
        self._staged.clear()
        self.commit_markers += sum(kind == KIND_COMMIT
                                   for kind, _payload in entries)
        self.appends += 1
        if total <= capacity < self._tail_len + total:
            # fits a page but not the tail's remainder: seal first, so the
            # append is one device write instead of two
            self._seal_tail()

        lsn = self.end_lsn
        chunk: list[bytes] = []     # blobs bound for the current tail page
        chunk_len = 0
        for blob in blobs:
            if self._tail_len + chunk_len + len(blob) > capacity:
                self._write_tail(chunk, lsn - 1)
                self._seal_tail()
                chunk, chunk_len = [], 0
            if self._tail_no is None:
                self._tail_no = self.file.allocate_page()
                self._tail_first = lsn
            chunk.append(blob)
            chunk_len += len(blob)
            lsn += 1
        end = self._tail_len + chunk_len
        pad = -end % SECTOR_BYTES
        if 0 < pad < MIN_ENTRY_BYTES:
            pad += SECTOR_BYTES     # no entry fits the gap: pad a sector more
        seal = False
        if 0 < pad <= total:        # alignment never costs more than the data
            if end + pad <= capacity:
                chunk.append(_encode_entry(0, KIND_PAD,
                                           bytes(pad - MIN_ENTRY_BYTES)))
                self.pad_bytes += pad
            else:
                seal = True
        self._write_tail(chunk, lsn - 1)
        if seal:
            self._seal_tail()
        self.end_lsn = lsn
        self.entries_appended += len(blobs)

    def _write_tail(self, chunk: list[bytes], last_lsn: int) -> None:
        """Write one page's share of an append: only the changed sectors."""
        if not chunk:
            return
        assert self._tail_no is not None
        data = b"".join(chunk)
        self.bytes_written += self.file.write_page(
            self._tail_no, data, offset=self._tail_len)
        self.pages_written += 1
        self._tail_len += len(data)
        self._tail_last = last_lsn

    def _seal_tail(self) -> None:
        if self._tail_no is not None:
            self._pages.append((self._tail_no, self._tail_first,
                                self._tail_last))
            self._tail_no = None
            self._tail_len = 0

    # -------------------------------------------------------------- truncate

    def truncate_below(self, lsn: int) -> int:
        """Free sealed pages whose entries all fall below ``lsn``.

        Called after an eviction or a checkpoint advanced the replay
        floor; returns the number of pages discarded.  Freeing drops the
        page image (models a TRIM) — no device I/O, so truncation can never
        be a crash point.  Pages are freed highest first, so the file's
        LIFO free list hands them back in ascending order and the log's
        write stream stays sequential across the reuse.
        """
        freed = sorted((page_no for page_no, _first, last in self._pages
                        if last < lsn), reverse=True)
        for page_no in freed:
            self.file.free_page(page_no)
        self._pages = [page for page in self._pages if page[2] >= lsn]
        self.pages_freed += len(freed)
        return len(freed)

    # --------------------------------------------------------------- recover

    @classmethod
    def recover(cls, file: PageFile) -> tuple["WriteAheadLog",
                                              list[WALEntry]]:
        """Replay a log file after a crash.

        Reads surviving pages in page-number order, one request per run of
        contiguous pages (charged), keeps each page's CRC-valid entry
        prefix, and returns the single contiguous LSN run — together with
        a log object positioned to append after it.  The recovered tail
        page is treated as sealed, so new appends start on a fresh page and
        never splice into a torn one.
        """
        live = [page_no for page_no in range(file.max_page_no)
                if file.has_contents(page_no)]
        found: list[tuple[int, int, list[WALEntry]]] = []
        for page_no, data in zip(live, file.read_pages_sequential(live)):
            if not isinstance(data, (bytes, bytearray)):
                continue
            entries = parse_entries(bytes(data))
            if entries:
                found.append((entries[0].lsn, page_no, entries))
        found.sort()

        wal = cls(file)
        replay: list[WALEntry] = []
        expected: int | None = None
        for first_lsn, page_no, entries in found:
            if expected is not None and first_lsn != expected:
                break  # LSN gap: stale pages beyond the crash frontier
            replay.extend(entries)
            expected = entries[-1].lsn + 1
            wal._pages.append((page_no, first_lsn, entries[-1].lsn))
        if replay:
            wal.end_lsn = replay[-1].lsn + 1
        return wal, replay

    def __repr__(self) -> str:
        return (f"WriteAheadLog(end_lsn={self.end_lsn}, "
                f"sealed_pages={len(self._pages)}, "
                f"appended={self.entries_appended})")
