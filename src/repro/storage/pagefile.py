"""Page files: named, extent-allocated collections of pages on the device.

A :class:`PageFile` maps page numbers to device addresses.  Space is acquired
in whole extents (64 KiB by default) from the device's linear allocator, so a
file's pages land at mostly adjacent LBAs — the allocation behaviour behind
the sequential eviction pattern in the paper's Figure 12c.

Page *contents* are Python objects held by the file (the device only models
cost); reads and writes charge the device and bump per-file counters used by
the buffer-efficiency experiment (Figure 12d).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import DeviceCrashError, PageNotFoundError, StorageError
from ..sim.device import SECTOR_BYTES, SimulatedDevice


class TornPage:
    """Contents of a page whose write was torn mid-crash.

    Object (non-byte) payloads cannot be prefix-spliced the way real sector
    images can, so a torn object write leaves this marker; any attempt to
    interpret it as real data fails loudly.  Byte payloads (logs, manifest
    superblocks) get a faithful ``new[:n] + old[n:]`` sector splice instead
    and never produce this marker.
    """

    __slots__ = ("bytes_persisted",)

    def __init__(self, bytes_persisted: int) -> None:
        self.bytes_persisted = bytes_persisted

    def __repr__(self) -> str:
        return f"TornPage(bytes_persisted={self.bytes_persisted})"


class PageFile:
    """One database file (a table, an index, a log) of fixed-size pages."""

    _next_file_id = 0

    def __init__(self, name: str, device: SimulatedDevice, page_size: int,
                 extent_pages: int) -> None:
        self.name = name
        self.device = device
        self.page_size = page_size
        self.extent_pages = extent_pages
        self.file_id = PageFile._next_file_id
        PageFile._next_file_id += 1

        self._contents: dict[int, object] = {}
        self._addresses: dict[int, int] = {}
        self._free_pages: list[int] = []
        self._next_page_no = 0
        self._extent_fill = 0       # pages used in the current extent
        self._extent_base = -1      # device address of the current extent
        #: device address of every extent the file holds; a sequential
        #: read run stops at one, so no request crosses an extent
        self._extent_starts: set[int] = set()

        #: physical (device) I/O counters for this file
        self.physical_reads = 0
        self.physical_writes = 0

    # -------------------------------------------------------------- allocate

    def allocate_page(self) -> int:
        """Allocate one page (reusing freed pages first) and return its number."""
        if self._free_pages:
            return self._free_pages.pop()
        if self._extent_base < 0 or self._extent_fill >= self.extent_pages:
            self._extent_base = self.device.allocate(
                self.page_size * self.extent_pages)
            self._extent_starts.add(self._extent_base)
            self._extent_fill = 0
        page_no = self._next_page_no
        self._next_page_no += 1
        self._addresses[page_no] = (
            self._extent_base + self._extent_fill * self.page_size)
        self._extent_fill += 1
        return page_no

    def free_page(self, page_no: int) -> None:
        """Return a page to the file's free list (contents dropped)."""
        self._require_allocated(page_no)
        self._contents.pop(page_no, None)
        self._free_pages.append(page_no)

    @property
    def allocated_pages(self) -> int:
        return self._next_page_no - len(self._free_pages)

    @property
    def max_page_no(self) -> int:
        """Exclusive upper bound of page numbers ever allocated."""
        return self._next_page_no

    @property
    def size_bytes(self) -> int:
        return self.allocated_pages * self.page_size

    # ------------------------------------------------------------------- I/O

    def read_page(self, page_no: int) -> object:
        """Physically read one page (random 8 KiB read)."""
        self._require_allocated(page_no)
        if page_no not in self._contents:
            raise PageNotFoundError(
                f"{self.name}: page {page_no} allocated but never written")
        self.device.read(self._addresses[page_no], self.page_size)
        self.physical_reads += 1
        return self._contents[page_no]

    def read_pages_sequential(self, page_nos: Sequence[int]) -> list[object]:
        """Physically read pages with sequential reads; returns their
        contents in ``page_nos`` order.

        The read twin of :meth:`flush_pages_sequential`: consecutive pages
        at contiguous device addresses form a run, a run ends at an extent
        boundary, and each run is one device request.  Every page must have
        contents — a missing one raises before any I/O is issued.
        """
        for page_no in page_nos:
            self._require_allocated(page_no)
            if page_no not in self._contents:
                raise PageNotFoundError(
                    f"{self.name}: page {page_no} allocated but never written")
        runs: list[list[int]] = []          # [start, end) device addresses
        for page_no in page_nos:
            address = self._addresses[page_no]
            if runs and address == runs[-1][1] \
                    and address not in self._extent_starts:
                runs[-1][1] += self.page_size
            else:
                runs.append([address, address + self.page_size])
        for start, end in runs:
            self.device.read(start, end - start)
            self.physical_reads += 1
        return [self._contents[page_no] for page_no in page_nos]

    def write_page(self, page_no: int, payload: object,
                   offset: int | None = None) -> int:
        """Physically write one page (random 8 KiB write); returns the
        device bytes written.

        Contents are installed only once the device accepts the write; an
        injected crash leaves the old contents (clean crash) or a torn
        sector-prefix image (torn-write fault) — never the full new payload.

        With ``offset`` the page is a byte image and ``payload`` the bytes
        to lay down at that offset (the log-tail append): the device
        request covers only the whole sectors around
        ``[offset, offset + len(payload))``.  The bytes it re-writes in
        front of ``offset`` are the image's own, so only the *delta* can
        change the page: a clean crash leaves the old image, a torn or
        partial one splices the persisted prefix of the delta over it —
        bytes below ``offset`` are never damaged.
        """
        self._require_allocated(page_no)
        if offset is not None:
            if not isinstance(payload, (bytes, bytearray)):
                raise StorageError(
                    f"{self.name}: a ranged write needs a byte payload, "
                    f"not {type(payload).__name__}")
            return self._write_range(page_no, offset, payload)
        try:
            self.device.write(self._addresses[page_no], self.page_size)
        except DeviceCrashError as exc:
            self._install_torn(page_no, payload, exc.bytes_persisted)
            raise
        self.physical_writes += 1
        self._contents[page_no] = payload
        return self.page_size

    def _write_range(self, page_no: int, offset: int,
                     data: bytes | bytearray) -> int:
        start = offset - offset % SECTOR_BYTES
        end = -(-(offset + len(data)) // SECTOR_BYTES) * SECTOR_BYTES
        try:
            self.device.write(self._addresses[page_no] + start, end - start)
        except DeviceCrashError as exc:
            persisted = start + exc.bytes_persisted - offset
            if persisted > 0:
                self._splice(page_no, offset, data[:persisted])
            raise
        self.physical_writes += 1
        self._splice(page_no, offset, data)
        return end - start

    def put_page_nocost(self, page_no: int, payload: object) -> None:
        """Install page contents without device I/O.

        Used by the buffer pool to register contents that were already paid
        for (e.g. pages written as part of a sequential extent append).
        """
        self._require_allocated(page_no)
        self._contents[page_no] = payload

    def append_extents(self, payloads: Sequence[object],
                       trailer: int = 0) -> list[int]:
        """Append pages with sequential extent-granularity writes.

        Allocates fresh extents and issues one 64 KiB (extent-sized) write per
        extent — the paper's "append partition to storage" / SIAS tail-flush
        pattern.  Returns the new page numbers.

        The last ``trailer`` payloads are a run's trailer pages, byte
        images: an extent that would hold only trailer pages — the run's
        last extent was full — is allocated at their size, not a whole
        extent's, and the last trailer page is written up to its last
        sector, like a log tail.
        """
        if not payloads:
            return []
        page_nos: list[int] = []
        idx = 0
        while idx < len(payloads):
            chunk = payloads[idx:idx + self.extent_pages]
            pages = (len(chunk) if idx >= len(payloads) - trailer
                     else self.extent_pages)
            base = self.device.allocate(self.page_size * pages)
            self._extent_starts.add(base)
            chunk_nos: list[int] = []
            for offset, _payload in enumerate(chunk):
                page_no = self._next_page_no
                self._next_page_no += 1
                self._addresses[page_no] = base + offset * self.page_size
                chunk_nos.append(page_no)
            nbytes = self.page_size * len(chunk)
            if trailer and idx + len(chunk) == len(payloads):
                last = len(chunk[-1])  # type: ignore[arg-type]
                nbytes -= self.page_size - -(-last // SECTOR_BYTES) * SECTOR_BYTES
            try:
                self.device.write(base, nbytes)
            except DeviceCrashError as exc:
                self._install_extent_prefix(chunk_nos, chunk,
                                            exc.bytes_persisted)
                raise
            self.physical_writes += 1
            for page_no, payload in zip(chunk_nos, chunk):
                self._contents[page_no] = payload
            page_nos.extend(chunk_nos)
            idx += self.extent_pages
        return page_nos

    def flush_pages_sequential(
            self, items: Sequence[tuple[int, object]]) -> None:
        """Write already-allocated pages with sequential writes.

        Groups the pages into runs of contiguous device addresses and issues
        one write per run — the SIAS tail-flush pattern.  Pages allocated
        back-to-back from fresh extents form a single run per extent.
        """
        if not items:
            return
        ordered = sorted(items, key=lambda it: self._addresses[it[0]])
        run: list[tuple[int, object]] = []

        def flush_run() -> None:
            if not run:
                return
            base = self._addresses[run[0][0]]
            try:
                self.device.write(base, self.page_size * len(run))
            except DeviceCrashError as exc:
                self._install_extent_prefix([no for no, _ in run],
                                            [p for _, p in run],
                                            exc.bytes_persisted)
                raise
            self.physical_writes += 1
            for no, payload in run:
                self._contents[no] = payload
            run.clear()

        for page_no, payload in ordered:
            self._require_allocated(page_no)
            if run:
                prev_no = run[-1][0]
                contiguous = (self._addresses[page_no]
                              == self._addresses[prev_no] + self.page_size)
                if not contiguous or len(run) >= self.extent_pages:
                    flush_run()
            run.append((page_no, payload))
        flush_run()

    def peek(self, page_no: int) -> object:
        """Read page contents without charging I/O (test/debug helper)."""
        self._require_allocated(page_no)
        if page_no not in self._contents:
            raise PageNotFoundError(
                f"{self.name}: page {page_no} allocated but never written")
        return self._contents[page_no]

    def has_contents(self, page_no: int) -> bool:
        return page_no in self._contents

    # --------------------------------------------------------------- internal

    def _install_torn(self, page_no: int, payload: object,
                      nbytes: int) -> None:
        """Install what a crashed single-page write left behind."""
        if nbytes <= 0:
            return  # clean crash: old contents (or absence) survive intact
        if nbytes >= self.page_size:
            self._contents[page_no] = payload
            return
        if isinstance(payload, (bytes, bytearray)):
            old = self._contents.get(page_no)
            tail = old[nbytes:] if isinstance(old, (bytes, bytearray)) else b""
            self._contents[page_no] = bytes(payload[:nbytes]) + bytes(tail)
        else:
            self._contents[page_no] = TornPage(nbytes)

    def _splice(self, page_no: int, offset: int,
                data: bytes | bytearray) -> None:
        """Overlay ``data`` at ``offset`` of a page's byte image, in place
        (the file owns the image; a gap below ``offset`` reads as zeros)."""
        image = self._contents.get(page_no)
        if not isinstance(image, bytearray):
            image = bytearray(image if isinstance(image, bytes) else b"")
            self._contents[page_no] = image
        if len(image) < offset:
            image.extend(bytes(offset - len(image)))
        image[offset:offset + len(data)] = data

    def _install_extent_prefix(self, page_nos: Sequence[int],
                               payloads: Sequence[object],
                               nbytes: int) -> None:
        """Install the persisted prefix of a crashed multi-page write."""
        full = min(nbytes // self.page_size, len(page_nos))
        for page_no, payload in zip(page_nos[:full], payloads[:full]):
            self._contents[page_no] = payload
        rest = nbytes - full * self.page_size
        if rest > 0 and full < len(page_nos):
            self._install_torn(page_nos[full], payloads[full], rest)

    def _require_allocated(self, page_no: int) -> None:
        if page_no not in self._addresses:
            raise PageNotFoundError(f"{self.name}: page {page_no} not allocated")

    def __repr__(self) -> str:
        return (f"PageFile({self.name!r}, pages={self.allocated_pages}, "
                f"reads={self.physical_reads}, writes={self.physical_writes})")
