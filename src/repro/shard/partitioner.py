"""Keyspace placement: which shard owns a shard-key value (§16.1).

:class:`HashPartitioner` is the one layout, a deterministic pure function
of the key: the key is encoded with the order-preserving key codec and
hashed with CRC32 into one of ``slots`` virtual slots; each slot maps to
an owning shard.  CRC32 over the *encoded* key (never Python's
``hash()``) keeps placement identical across processes and
``PYTHONHASHSEED`` values.  Rebalancing reassigns whole slots — so
does a bulk load, which deals the slots its rows use by load first.

The layout serializes to a JSON-shaped state dict
(``to_state``/``from_state``) — the coordinator logs it durably as a WAL
NOTE entry, and recovery restores the exact partitioner the last
completed rebalance installed.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Sequence

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

    @property
    def owners(self) -> tuple[int, ...]:
        """The owning shard of every slot, by slot number."""
        return tuple(self._owners)

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
        return {"kind": "hash", "shards": self.shards,
                "slots": self.slots, "owners": list(self._owners)}

    @classmethod
    def from_state(cls, state: JSONDict) -> "HashPartitioner":
        """Rebuild a layout from its logged state (``kind`` is not read:
        hash slots are the only layout)."""
        return cls(int(state["shards"]), list(state["owners"]),
                   int(state["slots"]))

    def __repr__(self) -> str:
        return f"HashPartitioner(shards={self.shards}, slots={self.slots})"
