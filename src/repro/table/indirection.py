"""Indirection layer: logical tuple references (paper §3.5).

Index records may store a *virtual tuple identifier* (VID) instead of a
physical recordID.  The indirection layer maps VIDs to the current chain
entry point, so non-key updates never require index maintenance — at the
price of one extra resolution step per index hit ("additional structures and
processing").  Resolution is charged CPU time on the simulated clock.
"""

from __future__ import annotations

from ..errors import TupleNotFoundError
from ..sim.clock import SimClock
from ..storage.recordid import RecordID


class IndirectionLayer:
    """VID → entry-point recordID mapping table."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self._map: dict[int, RecordID] = {}
        self._clock = clock or SimClock()
        self.resolutions = 0
        self.updates = 0

    def set(self, vid: int, rid: RecordID) -> None:
        """Point ``vid`` at a new chain entry point."""
        self._map[vid] = rid
        self.updates += 1
        self._charge()

    def resolve(self, vid: int) -> RecordID:
        """Resolve ``vid`` to the current entry point."""
        self.resolutions += 1
        self._charge()
        rid = self._map.get(vid)
        if rid is None:
            raise TupleNotFoundError(f"indirection: unknown vid {vid}")
        return rid

    def try_resolve(self, vid: int) -> RecordID | None:
        """Resolve, returning ``None`` for dropped (garbage-collected) VIDs."""
        self.resolutions += 1
        self._charge()
        return self._map.get(vid)

    def remove(self, vid: int) -> None:
        """Drop a garbage-collected VID; a map write like :meth:`set`,
        charged the same CPU cost."""
        self._map.pop(vid, None)
        self.updates += 1
        self._charge()

    def __contains__(self, vid: int) -> bool:
        return vid in self._map

    def __len__(self) -> int:
        return len(self._map)

    def _charge(self) -> None:
        clock = self._clock
        clock.advance(clock.cost.indirection_lookup)
