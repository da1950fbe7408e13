"""The page-based storage engine (Berkeley DB substitute).

Layering, bottom-up: :mod:`~repro.storage.pager` (fixed-size,
checksummed pages over a file: reads of a committed file, or
straight-through writes of a new one) →
:mod:`~repro.storage.buffer_pool` (read-only LRU cache of decoded
pages with an
:class:`~repro.storage.stats.IOStats` logical/physical split) →
:mod:`~repro.storage.btree` (write-once, variable-length-key B+ tree
with leaf-at-a-time range scans, overflow chains, bottom-up bulk
loading and whole-tree rewrite) →
:mod:`~repro.storage.env` (a directory of named trees sharing one pool
and one counter). :mod:`~repro.storage.keyenc` supplies
order-preserving composite keys; :mod:`~repro.storage.record` supplies
length-prefixed value framing. That one
:class:`~repro.storage.stats.IOStats` is the engine's only ledger: the
pool counts logical reads and evictions in it, the pager physical
reads and writes, and nothing else counts page I/O.

Crash safety rides along the same stack: every tree is committed by
writing a whole new file beside its own, fsyncing it, renaming it over
the old one and fsyncing the directory, so a crash leaves the old file
or the new one and there is nothing to recover on open.
:mod:`~repro.storage.faults` injects deterministic failures beneath it
all (file writes, fsyncs, renames, directory fsyncs), and
:mod:`~repro.storage.fsck` deep-verifies what survived.
"""

from .btree import BTree, FixedRows
from .buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from .env import StorageEnvironment
from .faults import (
    NO_FAULTS,
    FaultInjector,
    FaultRule,
    FaultyFile,
    SimulatedCrash,
    enumerate_schedules,
)
from .fsck import CheckReport, FsckReport, check_tree, fsck_environment
from .keyenc import (Desc, FixedKey, decode_key, encode_key,
                     prefix_upper_bound)
from .pager import DEFAULT_PAGE_SIZE, Pager
from .stats import IOStats

__all__ = [
    "BTree",
    "BufferPool",
    "CheckReport",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_POOL_PAGES",
    "Desc",
    "FaultInjector",
    "FaultRule",
    "FaultyFile",
    "FixedKey",
    "FixedRows",
    "FsckReport",
    "IOStats",
    "NO_FAULTS",
    "Pager",
    "SimulatedCrash",
    "StorageEnvironment",
    "check_tree",
    "decode_key",
    "encode_key",
    "enumerate_schedules",
    "fsck_environment",
    "prefix_upper_bound",
]
