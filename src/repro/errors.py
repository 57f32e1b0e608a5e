"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class.  Exceptions carry enough context to debug a failing
workload run without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PageOverflowError(StorageError):
    """A payload does not fit into a page."""


class PageNotFoundError(StorageError):
    """A page number is not allocated in the file."""


class SlotNotFoundError(StorageError):
    """A slot number does not exist (or was deleted) on a page."""


class DeviceError(StorageError):
    """An I/O request is malformed (bad LBA / size)."""


class DeviceCrashError(DeviceError):
    """The simulated device crashed (fault injection) during an I/O.

    ``bytes_persisted`` is the prefix of the failing *write* that reached
    stable storage before power was lost: 0 for a clean crash, a
    sector/page-rounded prefix for torn-page and partial-extent faults.
    Every subsequent I/O fails with this error until
    :meth:`~repro.sim.device.SimulatedDevice.reboot`.
    """

    def __init__(self, message: str, *, bytes_persisted: int = 0) -> None:
        super().__init__(message)
        self.bytes_persisted = bytes_persisted


class RecoveryError(StorageError):
    """Crash recovery could not reconstruct a consistent durable state."""


class FilterBlockError(StorageError):
    """A persisted partition's filter block does not decode (corrupt,
    torn or missing pages)."""


class BufferError_(ReproError):
    """Buffer-pool failure (e.g. all frames pinned)."""


class KeyCodecError(ReproError):
    """A key value cannot be encoded (unsupported type)."""


class TransactionError(ReproError):
    """Base class for transaction-manager failures."""


class TransactionStateError(TransactionError):
    """Operation is illegal in the transaction's current state."""


class WriteConflictError(TransactionError):
    """First-updater-wins conflict under snapshot isolation."""


class TableError(ReproError):
    """Base class for base-table failures."""


class TupleNotFoundError(TableError):
    """A recordID does not resolve to a tuple-version."""


class IndexError_(ReproError):
    """Base class for index failures."""


class UniqueViolationError(IndexError_):
    """A unique index rejected a duplicate key."""


class CatalogError(ReproError):
    """Unknown table/index name, or duplicate definition."""


class WorkloadError(ReproError):
    """A workload driver was misconfigured or hit an internal inconsistency."""


class ObsError(ReproError):
    """Observability-layer misuse: instrument kind mismatch, crossing
    trace spans, or exporting from a disabled subsystem."""


class ConcurrencyError(ReproError):
    """Serve-layer synchronization misuse: out-of-order lock acquisition,
    releasing an engine slot the thread does not hold, or driving a
    closed scheduler/committer."""


class SessionError(ReproError):
    """Session-layer misuse: operating on a closed session, nesting
    transactions on one session, or exceeding the server's session cap."""
