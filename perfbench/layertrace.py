"""Per-layer self-time tracing for the benchmark's traced run.

The benchmark does not instrument the program. Instead, for the length
of one traced round, it replaces the public functions and methods of
each layer (the modules under ``src/repro``) with thin wrappers that
count calls and time them, then puts the originals back. A wrapped
call's *self time* is its duration minus the durations of the wrapped
calls nested inside it, so the self times of all buckets add up to the
time spent inside wrapped calls, and nothing is counted twice. Times
are CPU time of the process, the clock the benchmark's ops are timed
with.

Generator functions (the archive readers' scans, B+ tree range scans)
are timed per ``next()``: the consumer's work between two items is not
charged to the generator.

A target that no longer exists (a later refactor renamed or removed
it) is skipped and listed in :attr:`Tracer.missing`, so the benchmark
keeps running; the metrics fed by it read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: The layers, in the order the benchmark reports them.
LAYERS = ("storage", "probability", "streams", "lahar", "indexes", "access",
          "core")

# (module, class or None for module functions, names, bucket). A bucket's
# layer is the part of its name before the first dot.
_CLASS_TARGETS: List[Tuple[str, str, Tuple[str, ...], str]] = [
    ("repro.storage.btree", "BTree", ("get",), "storage.get"),
    ("repro.storage.btree", "BTree", ("bulk_load",), "storage.bulk_load"),
    ("repro.storage.btree", "BTree",
     ("put", "delete", "items", "range_items", "cursor", "flush", "close"),
     "storage.tree"),
    ("repro.storage.btree", "Cursor",
     ("seek", "first", "last", "next", "prev", "close"), "storage.cursor"),
    ("repro.storage.env", "StorageEnvironment",
     ("open_tree", "exists", "list_trees", "drop_tree", "file_size", "flush"),
     "storage.env"),
    ("repro.storage.pager", "Pager", ("sync",), "storage.sync"),
    ("repro.probability.cpt", "CPT", ("from_bytes",), "probability.cpt_decode"),
    ("repro.probability.distribution", "SparseDistribution", ("from_bytes",),
     "probability.dist_decode"),
    ("repro.probability.cpt", "CPT", ("compose",), "probability.compose"),
    ("repro.probability.cpt", "CPT",
     ("to_bytes", "apply", "mask_destinations"), "probability.other"),
    ("repro.probability.distribution", "SparseDistribution",
     ("to_bytes", "mass_on"), "probability.other"),
    ("repro.streams.catalog", "Catalog",
     ("has_stream", "register_stream", "update_stream", "stream_meta",
      "list_streams", "dimension", "list_dimensions"), "streams.catalog"),
    ("repro.lahar.reg", "Reg",
     ("update", "update_independent", "update_loop_span"), "lahar.update"),
    ("repro.lahar.reg", "Reg", ("update_span",), "lahar.span"),
    ("repro.lahar.reg", "Reg", ("__init__", "initialize"), "lahar.init"),
    ("repro.lahar.reg", "QueryMachine", ("__init__",), "lahar.init"),
    ("repro.indexes.btc", "PredicateChronoCursor",
     ("__init__", "seek", "next", "advance_to"), "indexes.cursor"),
    ("repro.indexes.btp", "PredicateProbCursor",
     ("__init__", "pop", "peek_prob"), "indexes.cursor"),
    ("repro.indexes.mc", "MCIndex",
     ("compute_cpt", "compute_conditioned_cpt"), "indexes.mc_compute"),
    ("repro.access.base", "AccessMethod", ("run",), "access.driver"),
    ("repro.core.engine", "Caldera", ("context",), "core.context"),
]

_FUNCTION_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.storage.faults", "fsync_file", "storage.fsync"),
    ("repro.streams.archive", "write_stream", "streams.write"),
    ("repro.streams.archive", "open_reader", "streams.reader"),
    ("repro.indexes.builder", "build_btc", "indexes.btc_build"),
    ("repro.indexes.builder", "build_btp", "indexes.btp_build"),
    ("repro.indexes.builder", "build_mc", "indexes.mc_build"),
    ("repro.indexes.builder", "open_btc", "indexes.open"),
    ("repro.indexes.builder", "open_btp", "indexes.open"),
    ("repro.indexes.builder", "open_mc", "indexes.open"),
    ("repro.query.regular", "parse_query", "core.parse"),
    ("repro.core.planner", "plan", "core.plan"),
]

#: Reader methods, wrapped on every ``StreamReader`` subclass that
#: defines them (whatever the set of layouts is).
_READER_METHODS = ("marginal", "cpt_into", "scan_marginals", "scan_cpts",
                   "scan_cells", "materialize")


class Tracer:
    """Counts and self-times wrapped calls into the program's layers.

    :meth:`install` before a traced round and :meth:`uninstall` after
    it; the counters accumulate across rounds.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- accounting ------------------------------------------------------
    def _call(self, bucket: str, fn, args, kwargs):
        stack = self._stack
        stack.append(0)
        t0 = time.process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.process_time_ns() - t0
            self.calls[bucket] += 1
            self.self_ns[bucket] += duration - stack.pop()
            if stack:
                stack[-1] += duration

    def layer_ns(self, layer: str) -> int:
        """Self time of every bucket of one layer."""
        prefix = layer + "."
        return sum(ns for bucket, ns in self.self_ns.items()
                   if bucket.startswith(prefix))

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, bucket: str):
        call = self._call
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = call(bucket, next, (it,), {})
                        except StopIteration:
                            return
                        yield item
                finally:
                    it.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(bucket, fn, args, kwargs)
        return traced

    def _patch_method(self, cls, name: str, bucket: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, bucket))
        else:
            new = self._wrap(raw, bucket)
        self._undo.append((cls, name, raw))
        setattr(cls, name, new)

    def _patch_function(self, module, name: str, bucket: str) -> None:
        original = getattr(module, name)
        new = self._wrap(original, bucket)
        # Rebind it wherever it was imported by name, so callers that
        # did ``from .x import f`` see the wrapper too.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, name, None) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, new)

    def _module(self, path: str):
        try:
            return importlib.import_module(path)
        except ImportError:
            self.missing.append(path)
            return None

    def install(self) -> None:
        for path, cls_name, names, bucket in _CLASS_TARGETS:
            module = self._module(path)
            cls = getattr(module, cls_name, None) if module else None
            for name in names:
                if cls is not None and name in cls.__dict__:
                    self._patch_method(cls, name, bucket)
                else:
                    self.missing.append(f"{path}.{cls_name}.{name}")
        for path, name, bucket in _FUNCTION_TARGETS:
            module = self._module(path)
            if module is not None and callable(getattr(module, name, None)):
                self._patch_function(module, name, bucket)
            else:
                self.missing.append(f"{path}.{name}")
        archive = self._module("repro.streams.archive")
        base = getattr(archive, "StreamReader", None)
        if base is None:
            self.missing.append("repro.streams.archive.StreamReader")
            return
        for _, cls in inspect.getmembers(archive, inspect.isclass):
            if issubclass(cls, base):
                for name in _READER_METHODS:
                    if name in cls.__dict__:
                        self._patch_method(cls, name, "streams.reader")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self.missing = sorted(set(self.missing))
