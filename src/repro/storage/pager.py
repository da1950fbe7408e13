"""Fixed-size, checksummed pages over an ordinary file.

The pager is the only layer that touches the operating system: real
seek/read/write calls, one page at a time, each counted in the shared
:class:`~repro.storage.stats.IOStats`. Everything above (buffer pool,
B+ tree) deals in page ids.

A pager either reads a committed file or writes a new one; it never
changes a committed file (see DESIGN.md "Durability & recovery"):

- Every page lives in a *frame* of ``page_size + 16`` bytes: a header
  of ``crc32 | lsn | payload_len`` followed by the client's page. The
  checksum is verified on every physical read, so a torn or corrupted
  frame raises :class:`~repro.errors.CorruptPageError` instead of
  decoding garbage (an all-zero frame is a never-written page and reads
  back as zeros). The ``lsn`` field is written as 0.
- A new file (``create=True``) takes its pages straight through, in
  allocation order. :meth:`sync` writes the meta frame and fsyncs the
  file; :meth:`rename` then moves it over its final name (the commit
  point) and :meth:`sync_directory` makes the rename durable. A file
  is written beside its final name, so a crash or an error before the
  rename only abandons that sibling file.

File layout: page 0 is the pager's meta frame (magic, format version,
page size, allocation high-water mark, free-list head, lsn, checksum);
pages 1..N-1 belong to the client. The free-list head and lsn are
written as 0; a file written by an older version may carry a free-list
head, whose pages are unreachable and reclaimed by the file's next
rewrite. The meta frame records the page size so a file opened with
the wrong geometry fails loudly instead of shearing pages.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Optional

from ..errors import CorruptPageError, PageError, StorageError
from .faults import NO_FAULTS, fsync_file
from .stats import IOStats

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


class Pager:
    """Page-granular access to one file, checksummed: reads of a
    committed file, or straight-through writes of a new one."""

    def __init__(
        self,
        path: str,
        page_size: Optional[int] = None,
        stats: Optional[IOStats] = None,
        create: bool = False,
        faults=None,
    ) -> None:
        self.path = path
        self.stats = stats if stats is not None else IOStats()
        self.faults = faults if faults is not None else NO_FAULTS
        self._closed = False
        self._writable = create
        if create:
            if page_size is None:
                page_size = DEFAULT_PAGE_SIZE
            if page_size < MIN_PAGE_SIZE:
                raise PageError(
                    f"page size {page_size} below minimum {MIN_PAGE_SIZE}"
                )
            self._file = self.faults.open(path, "w+b")
            self.page_size = page_size
            self.num_pages = 1  # the meta page
            self.free_head = 0
        else:
            if not os.path.exists(path):
                raise StorageError(f"no such storage file: {path}")
            self._file = self.faults.open(path, "rb")
            try:
                # An explicit page_size must match the file; None
                # adopts it.
                self._read_meta(expected_page_size=page_size)
            except BaseException:
                self._file.close()
                raise

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def frame_size(self) -> int:
        """On-disk bytes per page: the client page plus its header."""
        return self.page_size + PAGE_HEADER_SIZE

    # ------------------------------------------------------------------
    # Meta page
    # ------------------------------------------------------------------
    def _read_meta(self, expected_page_size: Optional[int]) -> None:
        self._file.seek(0)
        raw = self._file.read(_META.size + _META_CRC.size)
        try:
            magic, version, page_size, num_pages, free_head, _lsn = \
                _META.unpack(raw[:_META.size])
            (crc,) = _META_CRC.unpack(raw[_META.size:])
        except struct.error:
            raise PageError(f"{self.path}: truncated meta page") from None
        if magic != _MAGIC:
            raise PageError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise PageError(f"{self.path}: unsupported format v{version}")
        if crc != zlib.crc32(raw[:_META.size]):
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
        #: Head of the free list an older version kept in this file (0
        #: in every file this version writes).
        self.free_head = free_head

    def _meta_frame(self) -> bytes:
        body = _META.pack(_MAGIC, _VERSION, self.page_size, self.num_pages,
                          0, 0)
        raw = body + _META_CRC.pack(zlib.crc32(body))
        return raw.ljust(self.frame_size, b"\x00")

    # ------------------------------------------------------------------
    # Frame codec
    # ------------------------------------------------------------------
    def _make_frame(self, payload: bytes) -> bytes:
        body = _PAGE_BODY.pack(0, len(payload)) \
            + payload.ljust(self.page_size, b"\x00")
        return _META_CRC.pack(zlib.crc32(body)) + body

    def _open_frame(self, page_id: int, frame: bytes) -> bytes:
        if not any(frame):
            # Never written: a fresh page reads back as zeros.
            return bytes(self.page_size)
        crc = _META_CRC.unpack_from(frame)[0]
        if crc != zlib.crc32(frame[_META_CRC.size:]):
            raise CorruptPageError(
                f"{self.path}: checksum mismatch on page {page_id} "
                f"— torn or corrupted frame"
            )
        return frame[PAGE_HEADER_SIZE:]

    # ------------------------------------------------------------------
    # Page I/O
    # ------------------------------------------------------------------
    def _check_usable(self, write: bool = False) -> None:
        if self._closed:
            raise StorageError(f"{self.path}: pager is closed")
        if write and not self._writable:
            raise StorageError(
                f"{self.path}: a committed file is never changed; "
                f"write a new one"
            )

    def _check(self, page_id: int, write: bool = False) -> None:
        self._check_usable(write)
        if not 1 <= page_id < self.num_pages:
            raise PageError(
                f"{self.path}: page {page_id} out of range "
                f"[1, {self.num_pages})"
            )

    def read(self, page_id: int) -> bytes:
        """Read and checksum-verify one page (zeros if never written)."""
        self._check(page_id)
        self.faults.fire("pager.read")
        self._file.seek(page_id * self.frame_size)
        frame = self._file.read(self.frame_size)
        if len(frame) < self.frame_size:
            frame = frame.ljust(self.frame_size, b"\x00")
        self.stats.physical_reads += 1
        return self._open_frame(page_id, frame)

    def _write_frame(self, page_id: int, frame: bytes) -> None:
        self._file.seek(page_id * self.frame_size)
        self.faults.fire("pager.write", handle=self._file, data=frame)
        self._file.write(frame)
        self.stats.physical_writes += 1

    def write(self, page_id: int, data: bytes) -> None:
        """Write one page of a new file (data must fit in a page)."""
        self._check(page_id, write=True)
        if len(data) > self.page_size:
            raise PageError(
                f"{self.path}: {len(data)} bytes exceed the "
                f"{self.page_size}-byte page"
            )
        self._write_frame(page_id, self._make_frame(bytes(data)))

    def allocate(self) -> int:
        """A fresh page id at the end of a new file."""
        self._check_usable(write=True)
        page_id = self.num_pages
        self.num_pages += 1
        return page_id

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Write a new file's meta frame, then fsync the file: every
        page written so far is durable when it returns. A committed
        file has nothing to sync."""
        if self._closed or not self._writable:
            return
        self._write_frame(0, self._meta_frame())
        self.faults.fire("pager.fsync", handle=self._file)
        fsync_file(self._file)

    def rename(self, target: str) -> None:
        """Move the synced file over ``target`` (replacing any file
        there) and stop taking writes: the commit point of a tree."""
        self._check_usable(write=True)
        self.faults.fire("pager.rename")
        self.faults.replace(self.path, target)
        self.path = target
        self._writable = False

    def sync_directory(self) -> None:
        """Fsync the file's directory, making its creation or its
        :meth:`rename` durable."""
        self.faults.fire("dir.fsync")
        self.faults.fsync_directory(os.path.dirname(self.path))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the file. Writes nothing: a new file that was never
        synced and renamed is abandoned."""
        if self._closed:
            return
        self._closed = True
        if not getattr(self._file, "closed", False):
            self._file.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
