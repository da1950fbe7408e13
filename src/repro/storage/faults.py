"""Deterministic fault injection for the storage engine.

The crash-safety story of :mod:`repro.storage` is only as good as its
worst untested failure interleaving, so every file handle the pager
opens, and every rename and directory fsync it makes, can be routed
through a :class:`FaultInjector` — a seeded failpoint registry plus a
:class:`FaultyFile` wrapper that models what an operating system
actually guarantees:

- bytes written but never fsynced live in the "page cache" and are
  **dropped** by :meth:`FaultInjector.crash` (the simulated power cut);
- a file creation or a rename is a change to its directory, durable
  only once that directory is fsynced: :meth:`FaultInjector.crash`
  reverts every one no directory fsync covered (a new file vanishes, a
  renamed file goes back to its old name and the file it replaced
  comes back);
- an injected *torn* write patches a seeded prefix of the payload into
  the durable image — the part of the sector that reached the platter —
  before the simulated crash;
- an injected *short* write applies a volatile prefix and raises
  ``OSError`` (the caller saw the syscall fail);
- *error* raises ``OSError(EIO)`` with nothing applied (fsync failures
  included — durability does not advance);
- *crash* raises :class:`SimulatedCrash` before anything is applied.

Failpoints are named sites (``pager.write``, ``pager.rename``,
``dir.fsync``, ...) that the pager fires on every pass; a
:class:`FaultRule` arms one site at its *n*-th hit. Running a workload
once with an unarmed injector yields per-site hit counts, and
:func:`enumerate_schedules` turns those counts into the exhaustive,
fully deterministic sweep the crash tests run — no subprocesses, no
timing, same seed → same faults.
"""

from __future__ import annotations

import errno
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ACTIONS",
    "FaultInjector",
    "FaultRule",
    "FaultyFile",
    "NO_FAULTS",
    "SimulatedCrash",
    "enumerate_schedules",
    "fsync_directory",
    "fsync_file",
]

#: Everything a rule can do at its site. ``torn``/``short`` need a
#: payload-carrying site (a write); fsync-style sites support the rest.
ACTIONS = ("error", "crash", "short", "torn")


class SimulatedCrash(Exception):
    """The process "died" at a failpoint.

    Deliberately *not* a :class:`~repro.errors.ReproError`: library code
    must never catch and absorb a simulated crash, exactly like it could
    not catch a real ``kill -9``.
    """


def fsync_file(handle) -> None:
    """Flush and fsync a file object, honoring :class:`FaultyFile`'s
    simulated durability instead of the real ``os.fsync`` when given
    one."""
    handle.flush()
    fsync = getattr(handle, "fsync", None)
    if fsync is not None:
        fsync()
    else:
        os.fsync(handle.fileno())


def fsync_directory(path: str) -> None:
    """Fsync a directory, making the creations and renames in it
    durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class FaultyFile:
    """A file object that distinguishes durable from volatile bytes.

    The real file always holds the *current* content (the OS page cache
    view, which normal reads see); ``_durable`` snapshots the content as
    of the last successful fsync. :meth:`drop_volatile` reverts the real
    file to the durable image — the crash. The underlying handle is
    unbuffered so no bytes hide in Python-level buffers. ``path`` follows
    the file through renames and is None once another file was renamed
    over it.
    """

    def __init__(self, path: str, mode: str, injector: "FaultInjector") -> None:
        self.path = path
        self.injector = injector
        self.crashed = False
        truncate = mode.startswith("w")
        if truncate or not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._fh = open(path, "r+b", buffering=0)
        self._durable = bytearray(b"" if truncate else self._read_disk())

    # -- plumbing ------------------------------------------------------
    def _read_disk(self) -> bytes:
        with open(self.path, "rb") as fh:
            return fh.read()

    def _check_alive(self) -> None:
        if self.crashed:
            raise OSError(errno.EIO, f"{self.path}: file handle lost in "
                          "simulated crash")

    # -- file protocol -------------------------------------------------
    def read(self, n: int = -1) -> bytes:
        self._check_alive()
        return self._fh.read(n)

    def write(self, data: bytes) -> int:
        self._check_alive()
        return self._fh.write(data)

    def seek(self, offset: int, whence: int = 0) -> int:
        self._check_alive()
        return self._fh.seek(offset, whence)

    def tell(self) -> int:
        return self._fh.tell()

    def truncate(self, size: Optional[int] = None) -> int:
        self._check_alive()
        return self._fh.truncate(size)

    def flush(self) -> None:
        self._check_alive()

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()

    @property
    def closed(self) -> bool:
        return self._fh.closed

    # -- simulated durability ------------------------------------------
    def fsync(self) -> None:
        """Advance the durable image to the current file content."""
        self._check_alive()
        self._durable = bytearray(self._read_disk())

    def patch_durable(self, offset: int, data: bytes) -> None:
        """Force ``data`` at ``offset`` into *both* the current and the
        durable image — a torn write's surviving prefix."""
        self._fh.seek(offset)
        self._fh.write(data)
        end = offset + len(data)
        if len(self._durable) < end:
            self._durable.extend(b"\x00" * (end - len(self._durable)))
        self._durable[offset:end] = data

    def drop_volatile(self) -> None:
        """Crash: revert the real file to the last-fsynced image and
        kill the handle."""
        if not self._fh.closed:
            self._fh.close()
        if self.path is not None:
            with open(self.path, "wb") as fh:
                fh.write(self._durable)
        self.crashed = True

    def __repr__(self) -> str:
        return (f"FaultyFile({self.path!r}, durable={len(self._durable)}B, "
                f"crashed={self.crashed})")


@dataclass(frozen=True)
class FaultRule:
    """Fire ``action`` at the ``at_hit``-th pass over ``site``
    (1-based)."""

    site: str
    at_hit: int
    action: str

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at_hit < 1:
            raise ValueError("at_hit is 1-based")

    def label(self) -> str:
        return f"{self.site}#{self.at_hit}:{self.action}"


class FaultInjector:
    """A seeded failpoint registry plus the files it may corrupt.

    With no rules armed it is a pure observer: every ``fire`` records a
    hit (``injector.hits``), which is how sweeps learn the site/hit
    space of a workload before enumerating schedules over it. Besides
    file handles it keeps the directory changes (creations, renames) no
    directory fsync has covered yet, so :meth:`crash` can revert them.
    """

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self.hits: Dict[str, int] = {}
        self.files: List[FaultyFile] = []
        self.fired: List[str] = []
        self.crashed = False
        #: Directory changes no directory fsync covered yet, oldest
        #: first: ``(directory, undo)`` with ``undo`` reverting it.
        self._unsynced: List[Tuple[str, Callable[[], None]]] = []

    # -- file handle factory and directory changes ---------------------
    def open(self, path: str, mode: str) -> FaultyFile:
        created = not os.path.exists(path)
        handle = FaultyFile(path, mode, self)
        self.files.append(handle)
        if created:
            self._unsynced.append((os.path.dirname(path),
                                   lambda: _remove(path)))
        return handle

    def replace(self, src: str, dst: str) -> None:
        """``os.replace(src, dst)``, durable only once the directory is
        fsynced: until then :meth:`crash` moves the file back to
        ``src`` and restores the file it replaced."""
        replaced = None
        for handle in self.files:
            if handle.path == dst:
                replaced = bytes(handle._durable)
        if replaced is None and os.path.exists(dst):
            with open(dst, "rb") as fh:
                replaced = fh.read()
        os.replace(src, dst)
        for handle in self.files:
            if handle.path == dst:
                handle.path = None
            elif handle.path == src:
                handle.path = dst

        def undo() -> None:
            if os.path.exists(dst):
                os.replace(dst, src)
            if replaced is not None:
                with open(dst, "wb") as fh:
                    fh.write(replaced)

        self._unsynced.append((os.path.dirname(dst), undo))

    def fsync_directory(self, path: str) -> None:
        """Make every creation and rename in directory ``path``
        durable."""
        self._unsynced = [(d, undo) for d, undo in self._unsynced
                          if d != path]

    # -- failpoints ----------------------------------------------------
    def fire(self, site: str, handle: Optional[FaultyFile] = None,
             data: Optional[bytes] = None) -> None:
        """One pass over a failpoint; applies the armed rule, if any."""
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for rule in self.rules:
            if rule.site == site and rule.at_hit == count:
                self._apply(rule, handle, data)

    def _apply(self, rule: FaultRule,
               handle: Optional[FaultyFile],
               data: Optional[bytes]) -> None:
        self.fired.append(rule.label())
        action = rule.action
        if action in ("short", "torn") and (handle is None or not data):
            action = "crash" if action == "torn" else "error"
        if action == "error":
            raise OSError(
                errno.EIO, f"injected I/O error at {rule.label()}"
            )
        if action == "crash":
            raise SimulatedCrash(rule.label())
        rng = random.Random(f"{self.seed}/{rule.site}/{rule.at_hit}/{action}")
        cut = rng.randrange(1, len(data)) if len(data) > 1 else 0
        if action == "short":
            handle.write(data[:cut])
            raise OSError(
                errno.EIO, f"injected short write ({cut}/{len(data)} "
                f"bytes) at {rule.label()}"
            )
        # torn: the prefix reached the platter, then the power went out.
        handle.patch_durable(handle.tell(), data[:cut])
        raise SimulatedCrash(f"torn write ({cut}/{len(data)} bytes) at "
                             f"{rule.label()}")

    # -- crash ---------------------------------------------------------
    def crash(self) -> None:
        """Drop every not-yet-fsynced byte in every open file, then undo
        every creation and rename no directory fsync covered, newest
        first — the moment after the simulated power cut."""
        self.crashed = True
        for handle in self.files:
            handle.drop_volatile()
        for _, undo in reversed(self._unsynced):
            undo()
        self._unsynced.clear()


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


class _NullInjector:
    """The default no-faults path: plain files, inert failpoints."""

    rules: List[FaultRule] = []

    @staticmethod
    def open(path: str, mode: str):
        return open(path, mode)

    @staticmethod
    def fire(site: str, handle=None, data=None) -> None:
        pass

    replace = staticmethod(os.replace)
    fsync_directory = staticmethod(fsync_directory)

    def __repr__(self) -> str:
        return "NO_FAULTS"


NO_FAULTS = _NullInjector()


def enumerate_schedules(
    site_hits: Dict[str, int],
    max_hits_per_site: int = 4,
    actions: Iterable[str] = ACTIONS,
) -> List[FaultRule]:
    """Every (site, hit, action) single-fault schedule for a workload.

    ``site_hits`` comes from a baseline run's ``injector.hits``. Hits
    beyond ``max_hits_per_site`` sample the site's first/last passes
    (the interesting edges) instead of enumerating hundreds of identical
    middles. Deterministic: same counts in → same schedule list out.
    """
    out: List[FaultRule] = []
    for site in sorted(site_hits):
        count = site_hits[site]
        if count <= max_hits_per_site:
            hit_list = list(range(1, count + 1))
        else:
            head = max_hits_per_site // 2 + max_hits_per_site % 2
            tail = max_hits_per_site // 2
            hit_list = list(range(1, head + 1))
            hit_list += list(range(count - tail + 1, count + 1))
        payload_site = site.endswith(".write")
        for hit in hit_list:
            for action in actions:
                if action in ("short", "torn") and not payload_site:
                    continue
                out.append(FaultRule(site, hit, action))
    return out
