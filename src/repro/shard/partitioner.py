"""Keyspace partitioners: which shard owns a shard-key value (§16.1).

Two schemes, both deterministic pure functions of the key:

* :class:`HashPartitioner` — the key is encoded with the order-preserving
  key codec and hashed with CRC32 into one of ``slots`` virtual slots;
  each slot maps to an owning shard.  CRC32 over the *encoded* key (never
  Python's ``hash()``) keeps placement identical across processes and
  ``PYTHONHASHSEED`` values.  Rebalancing reassigns whole slots.
* :class:`RangePartitioner` — sorted cut points split the keyspace into
  half-open spans ``[cut[i-1], cut[i])``; each span maps to an owning
  shard.  Rebalancing splits/moves spans, so range scans keep their
  locality.

Both serialize to a JSON-shaped state dict (``to_state``/``from_state``)
— the coordinator logs the layout durably as a WAL NOTE entry, and
recovery restores the exact partitioner the last completed rebalance
installed.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from functools import lru_cache
from typing import Sequence, TypeAlias

from ..errors import ConfigError
from ..storage.keycodec import encode_key
from ..types import JSONDict, Key


@lru_cache(maxsize=1 << 16, typed=True)
def _crc_slot(slots: int, *key: object) -> int:
    """``crc32(encode_key(key)) % slots``, memoised: placement is a pure
    function of the key and the slot count (owner tables live on the
    immutable partitioner, not here), and the ownership filter asks for
    the same few shard keys once per fetched row.  ``typed`` keeps keys
    that compare equal but encode apart (``1`` / ``1.0``) in separate
    entries."""
    return zlib.crc32(encode_key(key)) % slots


class HashPartitioner:
    """CRC32-of-encoded-key placement over ``slots`` virtual slots."""

    kind = "hash"

    def __init__(self, shards: int, owners: Sequence[int] | None = None,
                 slots: int = 64) -> None:
        if shards <= 0:
            raise ConfigError(f"shards must be positive: {shards}")
        if slots <= 0:
            raise ConfigError(f"slots must be positive: {slots}")
        self.shards = shards
        self.slots = slots
        if owners is None:
            self._owners = [i % shards for i in range(slots)]
        else:
            self._owners = list(owners)
        if len(self._owners) != slots:
            raise ConfigError(
                f"owners must map every slot: {len(self._owners)} != {slots}")
        if any(not 0 <= o < shards for o in self._owners):
            raise ConfigError(f"slot owner out of range [0, {shards})")

    def slot_of(self, key: Key) -> int:
        if 0.0 in key and float in map(type, key):
            # -0.0 == 0.0 (same type, same hash) but the codec tells
            # them apart: such keys must not share a memo entry
            return _crc_slot.__wrapped__(self.slots, *key)
        return _crc_slot(self.slots, *key)

    def shard_of(self, key: Key) -> int:
        return self._owners[self.slot_of(key)]

    def move_slot(self, slot: int, dst: int) -> "HashPartitioner":
        """New partitioner with virtual slot ``slot`` owned by ``dst``."""
        if not 0 <= slot < self.slots:
            raise ConfigError(f"no such slot: {slot}")
        owners = list(self._owners)
        owners[slot] = dst
        return HashPartitioner(self.shards, owners, self.slots)

    def to_state(self) -> JSONDict:
        return {"kind": self.kind, "shards": self.shards,
                "slots": self.slots, "owners": list(self._owners)}

    @classmethod
    def from_state(cls, state: JSONDict) -> "HashPartitioner":
        return cls(int(state["shards"]), list(state["owners"]),
                   int(state["slots"]))

    def __repr__(self) -> str:
        return f"HashPartitioner(shards={self.shards}, slots={self.slots})"


class RangePartitioner:
    """Sorted cut points; span ``i`` is ``[cuts[i-1], cuts[i])``."""

    kind = "range"

    def __init__(self, shards: int, cuts: Sequence[Key],
                 owners: Sequence[int] | None = None) -> None:
        if shards <= 0:
            raise ConfigError(f"shards must be positive: {shards}")
        self.shards = shards
        self._cuts: list[Key] = [tuple(c) for c in cuts]
        for a, b in zip(self._cuts, self._cuts[1:]):
            if not a < b:
                raise ConfigError(f"cuts must strictly ascend: {a!r} !< {b!r}")
        if owners is None:
            self._owners = [i % shards for i in range(len(self._cuts) + 1)]
        else:
            self._owners = list(owners)
        if len(self._owners) != len(self._cuts) + 1:
            raise ConfigError(
                f"owners must map every span: {len(self._owners)} != "
                f"{len(self._cuts) + 1}")
        if any(not 0 <= o < shards for o in self._owners):
            raise ConfigError(f"span owner out of range [0, {shards})")

    def shard_of(self, key: Key) -> int:
        return self._owners[bisect_right(self._cuts, tuple(key))]

    def owner_groups(self) -> list[tuple[Key | None, Key | None, int]]:
        """Consecutive same-owner spans merged: ``(lo, hi, owner)`` with
        ``lo`` inclusive (None = -inf) and ``hi`` exclusive (None = +inf),
        in ascending key order — a range scan queries each group once and
        concatenates, preserving global key order."""
        bounds: list[Key | None] = [None, *self._cuts, None]
        groups: list[tuple[Key | None, Key | None, int]] = []
        for i, owner in enumerate(self._owners):
            lo, hi = bounds[i], bounds[i + 1]
            if groups and groups[-1][2] == owner:
                groups[-1] = (groups[-1][0], hi, owner)
            else:
                groups.append((lo, hi, owner))
        return groups

    def move_range(self, lo: Key, hi: Key | None,
                   dst: int) -> "RangePartitioner":
        """New partitioner with ``[lo, hi)`` owned by ``dst``
        (``hi=None`` = +inf); other keys keep their owner."""
        if not 0 <= dst < self.shards:
            raise ConfigError(f"no such shard: {dst}")
        lo_t = tuple(lo)
        hi_t = tuple(hi) if hi is not None else None
        if hi_t is not None and not lo_t < hi_t:
            raise ConfigError(f"empty move range: {lo_t!r} !< {hi_t!r}")
        points = sorted({*self._cuts, lo_t,
                         *([hi_t] if hi_t is not None else [])})
        starts: list[Key | None] = [None, *points]
        cuts: list[Key] = []
        owners: list[int] = []
        for start in starts:
            if (start is not None and start >= lo_t
                    and (hi_t is None or start < hi_t)):
                owner = dst
            elif start is None:
                owner = self._owners[0]
            else:
                owner = self.shard_of(start)
            if owners and owners[-1] == owner:
                continue  # coalesce same-owner neighbours
            if start is not None:
                cuts.append(start)
            owners.append(owner)
        return RangePartitioner(self.shards, cuts, owners)

    def to_state(self) -> JSONDict:
        return {"kind": self.kind, "shards": self.shards,
                "cuts": [list(c) for c in self._cuts],
                "owners": list(self._owners)}

    @classmethod
    def from_state(cls, state: JSONDict) -> "RangePartitioner":
        return cls(int(state["shards"]),
                   [tuple(c) for c in state["cuts"]],
                   list(state["owners"]))

    def __repr__(self) -> str:
        return (f"RangePartitioner(shards={self.shards}, "
                f"cuts={len(self._cuts)})")


Partitioner: TypeAlias = "HashPartitioner | RangePartitioner"


def partitioner_from_state(state: JSONDict) -> "Partitioner":
    """Rebuild a partitioner from its logged layout state."""
    kind = state.get("kind")
    if kind == HashPartitioner.kind:
        return HashPartitioner.from_state(state)
    if kind == RangePartitioner.kind:
        return RangePartitioner.from_state(state)
    raise ConfigError(f"unknown partitioner kind {kind!r}")
