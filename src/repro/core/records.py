"""MV-PBT index-record types (paper §4.1, Figure 10).

Every record carries the search-key values, the *logical transaction
timestamp* of the creating/updating/deleting transaction, and recordIDs
giving it "matter" (it validates a tuple-version) and/or "anti-matter"
(it invalidates a predecessor's index record):

=============  ======  ===========  =========================================
type           matter  anti-matter  created by
=============  ======  ===========  =========================================
REGULAR        yes     no           INSERT (initial version of a tuple)
REPLACEMENT    yes     yes          non-key UPDATE (new version, same key);
                                    also the "new matter" half of a key update
ANTI           no      yes          key UPDATE (extinction at the *old* key)
TOMBSTONE      no      yes          DELETE (extinction of the whole chain)
REGULAR_SET    yes     no           eviction-time reconciliation of several
                                    REGULAR records with the same key (§4.7)
=============  ======  ===========  =========================================

Records additionally carry the tuple's VID (virtual identifier).  It is the
chain identity used by partition GC, and — under the *logical* reference mode
— the identity by which anti-matter invalidates predecessors (the indirection
layer resolves VIDs to entry points).  Under the *physical* reference mode
anti-matter matches by predecessor recordID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

from ..storage.keycodec import encoded_size
from ..storage.recordid import RecordID
from ..types import Key, SetEntry, SortKey

#: flags bitfield: record is garbage (invisible to every snapshot, §4.6)
FLAG_GC = 0x01

#: accounted bytes: partition number column prepended to every record
PARTITION_NO_BYTES = 2
#: accounted bytes of the transaction timestamp
TIMESTAMP_BYTES = 6
#: accounted bytes per recordID stored
RID_BYTES = 6
#: accounted bytes of the VID column (stored under logical references)
VID_BYTES = 6
#: accounted record header (type, flags, alignment)
RECORD_OVERHEAD_BYTES = 5


class RecordType(IntEnum):
    REGULAR = 0
    REPLACEMENT = 1
    ANTI = 2
    TOMBSTONE = 3
    REGULAR_SET = 4


class ReferenceMode(Enum):
    """How index records identify tuple-versions (paper §3.5)."""

    PHYSICAL = "physical"
    LOGICAL = "logical"


#: matter / anti-matter by record type (indexed by the IntEnum value; see
#: the table in the module docstring) — hot visibility paths index these
#: instead of testing ``rtype in (...)`` per record
HAS_MATTER = (True, True, False, False, True)
HAS_ANTIMATTER = (False, True, True, True, False)


@dataclass(slots=True)
class MVPBTRecord:
    """One MV-PBT index record.

    ``seq`` is a tree-global insertion sequence number; together with ``ts``
    it totally orders records of the same transaction (several statements of
    one transaction may touch the same key).
    """

    key: Key
    ts: int
    seq: int
    rtype: RecordType
    vid: int
    rid_new: RecordID | None = None   #: matter: the validated version
    rid_old: RecordID | None = None   #: anti-matter: invalidated predecessor
    payload: object = None            #: inline value (KV mode), else None
    flags: int = 0
    #: REGULAR_SET only: reconciled (vid, rid, ts, seq) entries, newest first
    set_entries: list[SetEntry] = field(default_factory=list)

    # ------------------------------------------------------------ semantics

    @property
    def has_antimatter(self) -> bool:
        return HAS_ANTIMATTER[self.rtype]

    @property
    def is_gc(self) -> bool:
        return bool(self.flags & FLAG_GC)

    def mark_gc(self) -> None:
        self.flags |= FLAG_GC

    def sort_key(self) -> SortKey:
        """Partition-internal ordering (paper §4.3): primary by search key,
        secondary newest-first by (timestamp, sequence)."""
        return (self.key, -self.ts, -self.seq)

    def __repr__(self) -> str:
        return (f"{self.rtype.name}(key={self.key}, ts={self.ts}, "
                f"vid={self.vid}, new={self.rid_new}, old={self.rid_old}"
                f"{', GC' if self.is_gc else ''})")


def payload_bytes(payload: object) -> int:
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray)):
        return len(payload) + 4
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + 4
    if isinstance(payload, (int, float)):
        return 8
    return 16


def record_ts_bounds(record: MVPBTRecord) -> tuple[int, int]:
    """Timestamp bounds ``(min_ts, max_ts)`` a record contributes to zone
    metadata.

    A REGULAR_SET record spans the timestamps of its reconciled entries —
    its own ``ts`` is the newest of them, but a snapshot older than the
    newest entry may still see an older one, so the set's full spread
    counts toward the page's window.
    """
    lo = hi = record.ts
    if record.rtype is RecordType.REGULAR_SET:
        for entry in record.set_entries:
            entry_ts = entry[2]
            if entry_ts < lo:
                lo = entry_ts
            elif entry_ts > hi:
                hi = entry_ts
    return lo, hi


def record_size(record: MVPBTRecord, mode: ReferenceMode) -> int:
    """Accounted on-page byte size of a record.

    MV-PBT records are larger than version-oblivious PBT entries because of
    the timestamp (and optional VID) columns — the reason fewer records fit
    into a same-sized ``P_N`` (paper §5, "Indexing Approaches under OLTP").
    """
    size = (PARTITION_NO_BYTES + encoded_size(record.key) + TIMESTAMP_BYTES
            + RECORD_OVERHEAD_BYTES + payload_bytes(record.payload))
    if mode is ReferenceMode.LOGICAL:
        size += VID_BYTES
    if record.rtype is RecordType.REGULAR_SET:
        per_entry = RID_BYTES + TIMESTAMP_BYTES
        if mode is ReferenceMode.LOGICAL:
            per_entry += VID_BYTES
        size += per_entry * len(record.set_entries)
        return size
    if record.rid_new is not None:
        size += RID_BYTES
    if record.rid_old is not None:
        size += RID_BYTES
    return size
