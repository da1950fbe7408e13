"""A directory of named B+ trees sharing one buffer pool.

The Berkeley DB "environment" analogue: every tree (stream data, BT_C /
BT_P / MC indexes, the catalog) lives in its own ``<name>.btree`` file
under one directory, and all of them share a single LRU buffer pool and
a single :class:`~repro.storage.stats.IOStats` counter — so one query's
cost is one delta on one counter no matter how many files it touches.
A tree's file appears at its first load (see
:meth:`~repro.storage.btree.BTree.bulk_load`) and is complete whenever
it exists.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..errors import StorageError
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .btree import BTree
from .buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from .faults import NO_FAULTS
from .pager import DEFAULT_PAGE_SIZE, Pager
from .stats import IOStats

_SUFFIX = ".btree"
#: The redo log an older version kept beside each tree file, and the
#: size of its header: a longer log holds records never applied to the
#: tree file.
_OLD_LOG_SUFFIX = ".wal"
_OLD_LOG_HEADER = 14


def stored_page_size(path: str, name: str) -> Optional[int]:
    """The page size of tree ``name``'s file in the database directory
    ``path``; None when the tree has no file."""
    file_path = os.path.join(path, name + _SUFFIX)
    if not os.path.exists(file_path):
        return None
    with Pager(file_path) as pager:
        return pager.page_size


class StorageEnvironment:
    """All storage state of one Caldera database directory.

    Besides the shared pool and :class:`IOStats` (the only ledger of
    page I/O), the environment owns one
    :class:`~repro.obs.metrics.MetricsRegistry` for query-level
    telemetry: planner fallbacks and cost errors, and the tracer's span
    latencies. Storage reports nothing through it.
    """

    def __init__(
        self,
        path: str,
        page_size: Optional[int] = DEFAULT_PAGE_SIZE,
        pool_pages: int = DEFAULT_POOL_PAGES,
        faults=None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.page_size = page_size
        os.makedirs(self.path, exist_ok=True)
        self.stats = IOStats()
        self.metrics = MetricsRegistry()
        #: Failpoint registry every pager routes file I/O, renames and
        #: directory fsyncs through; NO_FAULTS (plain files) unless a
        #: test injects one.
        self.faults = faults if faults is not None else NO_FAULTS
        self.pool = BufferPool(pool_pages, self.stats)
        self._trees: Dict[str, BTree] = {}
        self._closed = False

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
        """The named tree, opened on first use and cached. With
        ``create``, a tree without a file opens empty and gets its file
        at its first load."""
        self._check_open()
        tree = self._trees.get(name)
        if tree is None:
            file_path = self._check_name(name)
            log = file_path + _OLD_LOG_SUFFIX
            if os.path.exists(log) and \
                    os.path.getsize(log) > _OLD_LOG_HEADER:
                raise StorageError(
                    f"{log}: a write-ahead log holding records an older "
                    f"version never applied to the tree file; open the "
                    f"database once with that version to apply them, or "
                    f"delete the log to discard its last commit"
                )
            tree = BTree(file_path, self.pool, name=name,
                         page_size=self.page_size, stats=self.stats,
                         create=create, faults=self.faults)
            self._trees[name] = tree
        return tree

    def exists(self, name: str) -> bool:
        """True when the tree has a file (it was loaded at least once)."""
        return os.path.exists(self._check_name(name))

    def list_trees(self) -> List[str]:
        """Every tree with a file in the directory, sorted."""
        self._check_open()
        return sorted(
            entry[:-len(_SUFFIX)]
            for entry in os.listdir(self.path)
            if entry.endswith(_SUFFIX)
        )

    def drop_tree(self, name: str) -> None:
        """Delete a tree's file and purge its cached pages."""
        self._check_open()
        file_path = self._check_name(name)
        tree = self._trees.pop(name, None)
        if tree is not None:
            tree.close()
        elif not os.path.exists(file_path):
            raise StorageError(f"no such tree: {name!r}")
        if os.path.exists(file_path):
            os.remove(file_path)

    def file_size(self, name: str) -> int:
        """On-disk bytes of one tree's file."""
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
        """Deep-verify every tree file; returns a
        :class:`~repro.storage.fsck.FsckReport`. The check reads only
        committed files and makes no page writes."""
        from .fsck import fsck_environment

        self._check_open()
        return fsck_environment(self)

    def close(self) -> None:
        """Close every tree. Idempotent; it writes nothing (every tree
        commits when its load returns), so it cannot fail, even after a
        simulated crash."""
        if self._closed:
            return
        self._closed = True
        for tree in self._trees.values():
            tree.close()
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
