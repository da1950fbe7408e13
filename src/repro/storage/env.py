"""A directory of named B+ trees sharing one buffer pool.

The Berkeley DB "environment" analogue: every tree (stream data, BT_C /
BT_P / MC indexes, the catalog) lives in its own ``<name>.btree`` file
under one directory, and all of them share a single LRU buffer pool and
a single :class:`~repro.storage.stats.IOStats` counter — so one query's
cost is one delta on one counter no matter how many files it touches.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..errors import StorageError
from ..obs.metrics import MetricsRegistry, NullRegistry
from ..obs.tracing import Tracer
from .btree import BTree
from .buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from .faults import NO_FAULTS
from .pager import DEFAULT_PAGE_SIZE, Pager
from .stats import IOStats
from .wal import WAL_SUFFIX

_SUFFIX = ".btree"


class StorageEnvironment:
    """All storage state of one Caldera database directory.

    Besides the shared pool and :class:`IOStats`, the environment owns
    one :class:`~repro.obs.metrics.MetricsRegistry` that the pool, every
    pager, and every tree report through — per-environment telemetry
    with per-tree counters, cheap enough to leave on (pass
    ``metrics=False`` for no-op instruments).
    """

    def __init__(
        self,
        path: str,
        page_size: Optional[int] = DEFAULT_PAGE_SIZE,
        pool_pages: int = DEFAULT_POOL_PAGES,
        metrics=None,
        faults=None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.page_size = page_size
        os.makedirs(self.path, exist_ok=True)
        self.stats = IOStats()
        if metrics is None or metrics is True:
            self.metrics = MetricsRegistry()
        elif metrics is False:
            self.metrics = NullRegistry()
        else:
            self.metrics = metrics
        #: Failpoint registry every pager and WAL routes file I/O
        #: through; NO_FAULTS (plain files) unless a test injects one.
        self.faults = faults if faults is not None else NO_FAULTS
        # Lifecycle spans (WAL recovery on tree open) land here.
        self._lifecycle_tracer = Tracer(io=self.stats,
                                        registry=self.metrics)
        self.pool = BufferPool(pool_pages, self.stats,
                               metrics=self.metrics)
        self._trees: Dict[str, BTree] = {}
        self._closed = False
        #: Errors swallowed by best-effort :meth:`close` (e.g. closing
        #: after a simulated crash), newest last.
        self.close_errors: List[str] = []

    # ------------------------------------------------------------------
    # Tree management
    # ------------------------------------------------------------------
    def _check_name(self, name: str) -> str:
        if not name or os.sep in name or (os.altsep and os.altsep in name) \
                or name.startswith("."):
            raise StorageError(f"bad tree name {name!r}")
        return os.path.join(self.path, name + _SUFFIX)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"environment {self.path!r} is closed")

    def open_tree(self, name: str, create: bool = True) -> BTree:
        """The named tree, opened (or created) on first use and cached."""
        self._check_open()
        tree = self._trees.get(name)
        if tree is None:
            file_path = self._check_name(name)
            pager = Pager(file_path, page_size=self.page_size,
                          stats=self.stats, create=create,
                          metrics=self.metrics, faults=self.faults,
                          tracer=self._lifecycle_tracer)
            try:
                tree = BTree(pager, self.pool, name=name, create=create,
                             metrics=self.metrics)
            except StorageError:
                # Missing/corrupt tree header: release the clean pager
                # (nothing pending, so this performs no page writes).
                # Anything else — a simulated crash above all — must
                # propagate without touching the file again.
                pager.close()
                raise
            self._trees[name] = tree
        return tree

    def exists(self, name: str) -> bool:
        return name in self._trees or os.path.exists(self._check_name(name))

    def list_trees(self) -> List[str]:
        """Every tree in the directory (open or not), sorted."""
        self._check_open()
        names = {
            entry[:-len(_SUFFIX)]
            for entry in os.listdir(self.path)
            if entry.endswith(_SUFFIX)
        }
        names.update(self._trees)
        return sorted(names)

    def drop_tree(self, name: str) -> None:
        """Delete a tree's file and purge its cached pages."""
        self._check_open()
        file_path = self._check_name(name)
        tree = self._trees.pop(name, None)
        if tree is not None:
            self.pool.discard(tree)
            tree.pager.close()
        elif not os.path.exists(file_path):
            raise StorageError(f"no such tree: {name!r}")
        if os.path.exists(file_path):
            os.remove(file_path)
        # A stale log must go with its file, or a future tree of the
        # same name would replay the dead tree's pages.
        wal_path = file_path + WAL_SUFFIX
        if os.path.exists(wal_path):
            os.remove(wal_path)

    def file_size(self, name: str) -> int:
        """On-disk bytes of one tree's file."""
        tree = self._trees.get(name)
        if tree is not None:
            return tree.pager.file_size()
        file_path = self._check_name(name)
        if not os.path.exists(file_path):
            raise StorageError(f"no such tree: {name!r}")
        return os.path.getsize(file_path)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def tracer(self, sink=None) -> Tracer:
        """A span tracer bound to this environment's I/O counters and
        metrics registry (span latencies land in ``span.<name>.ms``)."""
        return Tracer(io=self.stats, registry=self.metrics, sink=sink)

    # ------------------------------------------------------------------
    # Cache control and lifecycle
    # ------------------------------------------------------------------
    def drop_caches(self) -> None:
        """Evict the entire pool — the next access pattern pays full
        physical I/O (cold-cache measurements)."""
        self.pool.evict_all()

    def fsck(self):
        """Deep-verify every tree and page file; returns a
        :class:`~repro.storage.fsck.FsckReport`. Every tree change is
        committed when it returns, so the check sees the committed
        image and makes no page writes."""
        from .fsck import fsck_environment

        self._check_open()
        return fsck_environment(self)

    def close(self) -> None:
        """Close every tree. Idempotent, and best-effort: a tree that
        cannot close (e.g. its file handle died in a simulated crash)
        is recorded in :attr:`close_errors` instead of aborting the
        shutdown — the remaining trees still close."""
        if self._closed:
            return
        self._closed = True
        for name in sorted(self._trees):
            try:
                self._trees[name].close()
            except (StorageError, OSError) as exc:
                self.close_errors.append(f"{name}: {exc}")
        self._trees.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "StorageEnvironment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StorageEnvironment({self.path!r}, page_size={self.page_size}, "
            f"trees={len(self._trees)} open)"
        )
