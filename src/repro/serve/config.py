"""Serve-layer configuration."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


def check_slice_rows(rows: int) -> int:
    """A sliced scan needs >= 1 row per slice to make progress; guards
    both ``ServeConfig`` and a per-call ``batch_scan(slice_rows=...)``."""
    if rows < 1:
        raise ConfigError(f"scan_slice_rows must be >= 1, got {rows}")
    return rows


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the multi-session serving layer.

    The defaults are chosen so that a single-session server behaves
    byte-identically to driving the :class:`~repro.engine.database.Database`
    directly (group commit degenerates to one-transaction groups, the
    scheduler to an uncontended mutex) — the golden-trace determinism
    suite relies on that.  A durable :class:`~repro.serve.server.Server`
    always group-commits; groups form by engine-slot contention alone.
    """

    #: hard cap on concurrently open sessions
    max_sessions: int = 64
    #: visible hits per analytical scan slice; between slices the session
    #: releases the engine slot so short transactions can interleave
    scan_slice_rows: int = 256

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ConfigError(
                f"max_sessions must be >= 1, got {self.max_sessions}")
        check_slice_rows(self.scan_slice_rows)
