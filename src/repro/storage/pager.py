"""Fixed-size pages over an ordinary file — now crash-safe.

The pager is the only layer that touches the operating system: real
seek/read/write calls, one page at a time, each counted in the shared
:class:`~repro.storage.stats.IOStats`. Everything above (buffer pool,
B+ tree) deals in page ids.

Crash safety (see DESIGN.md "Durability & recovery"):

- Every page lives in a *frame* of ``page_size + 16`` bytes: a header
  of ``crc32 | lsn | payload_len`` followed by the client's page. The
  checksum is verified on every physical read, so a torn or corrupted
  frame raises :class:`~repro.errors.CorruptPageError` instead of
  decoding garbage (an all-zero frame is a never-written page and reads
  back as zeros).
- Writes never touch the main file directly. They append full frames to
  the write-ahead log (:mod:`~repro.storage.wal`) and park the frame in
  an in-memory table; :meth:`sync` commits (WAL fsync) and then
  checkpoints — in-place frame writes in page-id order, main-file
  fsync, WAL truncate. The main file is only ever written *after* the
  covering WAL records are durable, so any crash rolls back to the last
  :meth:`sync` on reopen.
- A change is written inside :meth:`change`, which commits when the
  change completes. If it fails part-way (an I/O error, bad input
  found mid-load, a crash), the pager refuses every further page access
  and commit, :meth:`close` included, so the half-written change never
  reaches the file; reopening recovers the last commit.
- Opening a file whose WAL holds committed records replays them first
  (redo recovery), truncating the log at the first torn record.

File layout: page 0 is the pager's meta frame (magic, format version,
page size, allocation high-water mark, free-list head, LSN high-water,
checksum); pages 1..N-1 belong to the client. Freed pages form a linked
list threaded through their first 8 bytes and are reused before the
file grows. The meta frame records the page size so a file opened with
the wrong geometry fails loudly instead of shearing pages.
"""

from __future__ import annotations

import struct
import os
import zlib
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import CorruptPageError, PageError, StorageError
from ..obs.metrics import NullRegistry
from .faults import NO_FAULTS, fsync_file
from .stats import IOStats
from .wal import WAL_SUFFIX, WriteAheadLog

DEFAULT_PAGE_SIZE = 4096
MIN_PAGE_SIZE = 128

_MAGIC = b"CALP"
_VERSION = 2
# magic, version, page_size, num_pages, free_head, lsn + trailing crc32
_META = struct.Struct(">4sHIQQQ")
_META_CRC = struct.Struct(">I")
_PAGE_HDR = struct.Struct(">IQI")   # crc32, lsn, payload_len
_PAGE_BODY = struct.Struct(">QI")   # lsn, payload_len (the crc'd part)
PAGE_HEADER_SIZE = _PAGE_HDR.size
_FREE_LINK = struct.Struct(">Q")


class Pager:
    """Page-granular access to one file, redo-logged and checksummed."""

    def __init__(
        self,
        path: str,
        page_size: Optional[int] = None,
        stats: Optional[IOStats] = None,
        create: bool = True,
        metrics=None,
        faults=None,
        tracer=None,
    ) -> None:
        self.path = path
        self.stats = stats if stats is not None else IOStats()
        self.metrics = metrics if metrics is not None else NullRegistry()
        self.faults = faults if faults is not None else NO_FAULTS
        self._m_reads = self.metrics.counter("pager.physical_reads")
        self._m_writes = self.metrics.counter("pager.physical_writes")
        self._m_alloc_fresh = self.metrics.counter("pager.pages_allocated")
        self._m_alloc_reused = self.metrics.counter("pager.pages_reused")
        self._m_freed = self.metrics.counter("pager.pages_freed")
        self._m_syncs = self.metrics.counter("pager.syncs")
        self._m_checksum_failures = self.metrics.counter(
            "pager.checksum_failures")
        self._m_checkpoint_pages = self.metrics.counter(
            "pager.checkpoint_pages")
        self._closed = False
        self._failed = False
        self._dirty = {}  # page_id -> frame, not yet checkpointed
        self._meta_dirty = False
        self._lsn = 0
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self.wal = WriteAheadLog(path + WAL_SUFFIX, faults=self.faults,
                                 metrics=self.metrics, stats=self.stats)
        if not exists and self.wal.pending:
            # The main file was lost before its first checkpoint; the
            # committed state lives only in the log. Recreate and replay.
            if not os.path.exists(path):
                with open(path, "wb"):
                    pass
            exists = True
        if not exists and not create:
            self.wal.close()
            raise StorageError(f"no such storage file: {path}")
        if exists:
            self._file = self.faults.open(path, "r+b")
            self._recover(tracer)
            # An explicit page_size must match the file; None adopts it.
            self._read_meta(expected_page_size=page_size)
            self.wal.initialize(self.page_size)
        else:
            if page_size is None:
                page_size = DEFAULT_PAGE_SIZE
            if page_size < MIN_PAGE_SIZE:
                raise PageError(
                    f"page size {page_size} below minimum {MIN_PAGE_SIZE}"
                )
            self._file = self.faults.open(path, "w+b")
            self.page_size = page_size
            self.num_pages = 1  # the meta page
            self._free_head = 0
            self._meta_dirty = True
            self.wal.initialize(page_size)
            self.sync()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def frame_size(self) -> int:
        """On-disk bytes per page: the client page plus its header."""
        return self.page_size + PAGE_HEADER_SIZE

    @property
    def lsn(self) -> int:
        """The log sequence number of the most recent page write."""
        return self._lsn

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, tracer) -> None:
        """Replay committed WAL records into the main file, then
        truncate the log — the redo half of crash recovery."""
        if not self.wal.pending:
            return
        frame_size = self.wal.page_size + PAGE_HEADER_SIZE

        def _replay() -> None:
            applied = self.wal.recover_into(self._file, frame_size)
            if applied:
                self.faults.fire("recover.fsync", handle=self._file)
                fsync_file(self._file)
            self.wal.reset()

        if tracer is not None:
            with tracer.span("wal.recover", file=os.path.basename(self.path)):
                _replay()
        else:
            _replay()

    # ------------------------------------------------------------------
    # Meta page
    # ------------------------------------------------------------------
    def _read_meta(self, expected_page_size: Optional[int]) -> None:
        self._file.seek(0)
        raw = self._file.read(_META.size + _META_CRC.size)
        try:
            magic, version, page_size, num_pages, free_head, lsn = \
                _META.unpack(raw[:_META.size])
            (crc,) = _META_CRC.unpack(raw[_META.size:])
        except struct.error:
            raise PageError(f"{self.path}: truncated meta page") from None
        if magic != _MAGIC:
            raise PageError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise PageError(f"{self.path}: unsupported format v{version}")
        if crc != zlib.crc32(raw[:_META.size]):
            self._m_checksum_failures.inc()
            raise CorruptPageError(
                f"{self.path}: meta page checksum mismatch"
            )
        if expected_page_size is not None and page_size != expected_page_size:
            raise PageError(
                f"{self.path}: file has {page_size}-byte pages, "
                f"opened with page_size={expected_page_size}"
            )
        self.page_size = page_size
        self.num_pages = num_pages
        self._free_head = free_head
        self._lsn = lsn

    def _meta_frame(self) -> bytes:
        body = _META.pack(
            _MAGIC, _VERSION, self.page_size, self.num_pages,
            self._free_head, self._lsn,
        )
        raw = body + _META_CRC.pack(zlib.crc32(body))
        return raw.ljust(self.frame_size, b"\x00")

    # ------------------------------------------------------------------
    # Frame codec
    # ------------------------------------------------------------------
    def _make_frame(self, payload: bytes, lsn: int) -> bytes:
        body = _PAGE_BODY.pack(lsn, len(payload)) \
            + payload.ljust(self.page_size, b"\x00")
        return _META_CRC.pack(zlib.crc32(body)) + body

    def _open_frame(self, page_id: int, frame: bytes) -> bytes:
        if not any(frame):
            # Never written: a fresh page reads back as zeros.
            return bytes(self.page_size)
        crc, lsn, _payload_len = _PAGE_HDR.unpack_from(frame)
        if crc != zlib.crc32(frame[_META_CRC.size:]):
            self._m_checksum_failures.inc()
            raise CorruptPageError(
                f"{self.path}: checksum mismatch on page {page_id} "
                f"(lsn {lsn}) — torn or corrupted frame"
            )
        return frame[PAGE_HEADER_SIZE:]

    def frame_lsn(self, page_id: int) -> int:
        """The LSN stamped on a page's current frame (0 if unwritten)."""
        frame = self._dirty.get(page_id)
        if frame is None:
            self._file.seek(page_id * self.frame_size)
            frame = self._file.read(self.frame_size)
        if len(frame) < PAGE_HEADER_SIZE or not any(frame):
            return 0
        return _PAGE_HDR.unpack_from(frame)[1]

    # ------------------------------------------------------------------
    # Page I/O
    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._closed:
            raise StorageError(f"{self.path}: pager is closed")
        if self._failed:
            raise StorageError(
                f"{self.path}: a change failed part-way; reopen the file "
                f"to recover its last commit"
            )

    def _check(self, page_id: int) -> None:
        self._check_usable()
        if not 1 <= page_id < self.num_pages:
            raise PageError(
                f"{self.path}: page {page_id} out of range "
                f"[1, {self.num_pages})"
            )

    def read(self, page_id: int) -> bytes:
        """Read and checksum-verify one page (zeros if never written)."""
        self._check(page_id)
        self.faults.fire("pager.read")
        frame = self._dirty.get(page_id)
        if frame is None:
            self._file.seek(page_id * self.frame_size)
            frame = self._file.read(self.frame_size)
            if len(frame) < self.frame_size:
                frame = frame.ljust(self.frame_size, b"\x00")
        self.stats.physical_reads += 1
        self._m_reads.inc()
        return self._open_frame(page_id, frame)

    def write(self, page_id: int, data: bytes) -> None:
        """Write one page (data must fit in a page).

        The frame goes to the write-ahead log, not the main file; it
        becomes durable at the next :meth:`sync` and reaches its
        in-place offset at that sync's checkpoint.
        """
        self._check(page_id)
        if len(data) > self.page_size:
            raise PageError(
                f"{self.path}: {len(data)} bytes exceed the "
                f"{self.page_size}-byte page"
            )
        self._lsn += 1
        frame = self._make_frame(bytes(data), self._lsn)
        self.wal.append(page_id, frame, self._lsn)
        self._dirty[page_id] = frame
        self.stats.physical_writes += 1
        self._m_writes.inc()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """A fresh page id: reuse the free list, else extend the file."""
        self._check_usable()
        self._meta_dirty = True
        if self._free_head:
            page_id = self._free_head
            raw = self.read(page_id)
            (self._free_head,) = _FREE_LINK.unpack_from(raw)
            self._m_alloc_reused.inc()
            return page_id
        page_id = self.num_pages
        self.num_pages += 1
        self._m_alloc_fresh.inc()
        return page_id

    def free(self, page_id: int) -> None:
        """Return a page to the free list."""
        self._check(page_id)
        self.write(page_id, _FREE_LINK.pack(self._free_head))
        self._free_head = page_id
        self._meta_dirty = True
        self._m_freed.inc()

    def free_pages(self) -> Iterator[int]:
        """Walk the free list; raises :class:`CorruptPageError` on a
        cycle or an out-of-range link."""
        seen = set()
        page_id = self._free_head
        while page_id:
            if page_id in seen:
                raise CorruptPageError(
                    f"{self.path}: free-list cycle at page {page_id}"
                )
            if not 1 <= page_id < self.num_pages:
                raise CorruptPageError(
                    f"{self.path}: free-list link to out-of-range page "
                    f"{page_id}"
                )
            seen.add(page_id)
            yield page_id
            (page_id,) = _FREE_LINK.unpack_from(self.read(page_id))

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Move committed frames from the WAL to their in-place offsets
        (deterministic page-id order), fsync, truncate the log."""
        for page_id in sorted(self._dirty):
            frame = self._dirty[page_id]
            self._file.seek(page_id * self.frame_size)
            self.faults.fire("checkpoint.write", handle=self._file,
                             data=frame)
            self._file.write(frame)
            self.stats.physical_writes += 1
            self._m_writes.inc()
            self._m_checkpoint_pages.inc()
        self.faults.fire("checkpoint.fsync", handle=self._file)
        fsync_file(self._file)
        self.wal.reset()
        self._dirty.clear()

    def sync(self) -> None:
        """Commit: meta to WAL, WAL fsync, then checkpoint. On return
        every page ever written is durable in the main file."""
        if self._closed:
            return
        self._check_usable()
        if not self._dirty and not self._meta_dirty:
            return
        self._dirty[0] = self._meta_frame()
        self.wal.append(0, self._dirty[0], self._lsn)
        self.stats.physical_writes += 1
        self._m_writes.inc()
        self.wal.commit(self._lsn)
        self._meta_dirty = False
        self._checkpoint()
        self._m_syncs.inc()

    @contextmanager
    def change(self) -> Iterator[None]:
        """One atomic change: the page writes, allocations and frees of
        the block commit together (one :meth:`sync`) when it ends.

        If the block or its commit raises, the pager is marked failed
        and takes no further page access or commit, so :meth:`close`
        raises instead of committing half a change. Reopening the file
        recovers the last commit: the one before the change, or the
        change itself if its commit record became durable before the
        failure.
        """
        self._check_usable()
        try:
            yield
            self.sync()
        except BaseException:
            self._failed = True
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        try:
            self.sync()
        finally:
            self._closed = True
            self.wal.close()
            if not getattr(self._file, "closed", False):
                self._file.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def file_size(self) -> int:
        """Allocated file extent in bytes (high-water mark)."""
        return self.num_pages * self.frame_size

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
