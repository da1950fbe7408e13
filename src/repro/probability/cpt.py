"""Conditional probability tables.

A CPT maps each source state to a sparse row distribution over
destination states — the ``C_t(x_{t+1} | x_t)`` objects a Markovian
stream stores between timesteps (§2.1). :meth:`CPT.apply` propagates a
vector one step. :meth:`CPT.compose` (the chain rule
``p(t_j | t_i) = Σ_k p(t_j | t_k) · p(t_k | t_i)``) and
:meth:`CPT.mask_destinations` (sub-stochastic conditioning for
predicate-conditioned Kleene loops, §3.3.2: the lost mass is exactly
the probability of leaving the loop) stay on dict rows only as the
stepwise oracles of the tests and of perfbench: the library multiplies
dense stacks.

Record layout
-------------
A stored CPT is raw CSR: one uvarint header ``rows << 2 | code``, then
``src[rows]``, ``row_len[rows]`` and ``dst[nnz]`` as little-endian
unsigned ints of ``1 << code`` bytes, then ``val[nnz]`` as ``<f8``, rows
by source and each row's entries by destination. The id width is the
smallest of 1, 2 or 4 bytes that holds the record's largest id or row
length, so it comes from the data. Records move in blocks: a
:class:`CPTBlock` holds K CPTs in one set of CSR arrays.
:func:`decode_block` turns K records into a block, :func:`encode_block`
(its inverse) a block into K records, and :meth:`CPTBlock.of` gathers
dict rows into a block. The Reg kernel and the MC index build compute
on a block as dense ``(K, n, n)`` stacks (:func:`densify`, and
:func:`sparsify` back). :meth:`CPT.from_bytes` and
:meth:`CPT.to_bytes` are blocks of one, and a decoded CPT builds the
dict rows that :meth:`CPT.row` and :meth:`CPT.apply` walk only on first
use.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Sequence, Tuple, Union)

import numpy as np

from ..errors import CatalogError, StorageError
from ..storage.record import decode_uvarint, encode_uvarint
from .distribution import SparseDistribution

_EMPTY_ROW = SparseDistribution()

RowLike = Union[SparseDistribution, Mapping[int, float]]

#: ``(src, row_len, dst, val)``: a CPT's rows as CSR arrays.
CSRArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Version of the stored CPT record layout. Archives and MC indexes
#: write it into their metadata and refuse to open any other.
RECORD_VERSION = 2

#: Per id-width code (width ``1 << code`` bytes): the ids' NumPy dtype.
_ID_DTYPES = ("<u1", "<u2", "<u4")

#: Float budget of one dense stack: K steps over ``n`` states densify
#: ``K · n²`` floats, so K is at most ``BLOCK_FLOATS // n²`` (128 KiB).
BLOCK_FLOATS = 1 << 14


class CPTBlock(namedtuple("CPTBlock", "steps step src row_len dst val")):
    """``steps`` CPTs applied in order (adjacent timesteps, or an MC
    gap's pieces) as one CSR block: row ``i`` maps source ``src[i]`` of
    CPT ``step[i]`` to the next ``row_len[i]`` entries of ``dst`` and
    ``val``, rows in step order."""

    __slots__ = ()

    @classmethod
    def of(cls, cpts: Sequence["CPT"]) -> "CPTBlock":
        """The dict rows of ``cpts``, in order, gathered into one block:
        each CPT's rows by source, each row's entries by destination."""
        counts, srcs, lens, dsts, vals = [], [], [], [], []
        for cpt in cpts:
            rows = cpt._row_map()
            counts.append(len(rows))
            for src in sorted(rows):
                items = sorted(rows[src].items())
                srcs.append(src)
                lens.append(len(items))
                for dst, p in items:
                    dsts.append(dst)
                    vals.append(p)
        return cls(len(counts), np.arange(len(counts)).repeat(counts),
                   np.array(srcs, np.int64), np.array(lens, np.int64),
                   np.array(dsts, np.int64), np.array(vals, np.float64))

    def approx_equal(self, other: "CPT", tol: float = 1e-9) -> bool:
        """Whether the dense product of the steps, in order, equals
        ``other`` entry-wise within ``tol`` (the tests' and perfbench's
        oracle check; nothing in the library calls it)."""
        want = CPTBlock.of([other])
        n = 1 + max(int(ids.max(initial=0))
                    for ids in (self.src, self.dst, want.src, want.dst))
        (stack,) = densify(self, n, np.empty(self.steps * n * n))
        got = reduce(np.matmul, stack)
        (stack,) = densify(want, n, np.empty(n * n))
        return bool(np.abs(got - stack[0]).max() <= tol)


def densify(block: CPTBlock, n: int, buf: np.ndarray) -> Iterator[np.ndarray]:
    """The steps in order as dense ``(k, n, n)`` stacks over states
    ``0 .. n - 1``, written into ``buf`` (1-D, at least ``n²`` floats):
    one zero fill and one scatter per ``buf.size // n²`` steps. Each
    stack is a view of ``buf`` that lives until the next."""
    size = n * n
    cap = buf.size // size
    at = np.repeat((block.step * n + block.src) * n, block.row_len) + block.dst
    # Entries are in step order: each chunk of ``cap`` steps is a slice.
    cuts = [0, len(at)] if block.steps <= cap else np.searchsorted(
        at // size, np.arange(0, block.steps + cap, cap)).tolist()
    for first, lo, hi in zip(range(0, block.steps, cap), cuts, cuts[1:]):
        stack = buf[:min(cap, block.steps - first) * size]
        stack.fill(0.0)
        stack[at[lo:hi] - first * size] = block.val[lo:hi]
        yield stack.reshape(-1, n, n)


def sparsify(stack: np.ndarray) -> CPTBlock:
    """The nonzero entries of a ``(k, n, n)`` stack as a block, rows by
    source and entries by destination (the inverse of :func:`densify`)."""
    step, src, dst = np.nonzero(stack)
    row = step * stack.shape[1] + src
    first = np.flatnonzero(np.diff(row, prepend=-1))
    return CPTBlock(len(stack), step[first], src[first],
                    np.diff(first, append=len(row)), dst,
                    stack[step, src, dst])


def check_record_version(found, owner: str) -> None:
    """Raise :class:`~repro.errors.CatalogError` unless ``found``, the
    version in a metadata record, is :data:`RECORD_VERSION`."""
    if found != RECORD_VERSION:
        raise CatalogError(
            f"{owner} stores CPT record format {found}, expected "
            f"{RECORD_VERSION}; re-archive it"
        )


class CPT:
    """A sparse source → (destination → probability) table.

    A CPT holds its rows as a dict (built from a mapping, or lazily from
    a decoded record) and as CSR arrays (decoded, or lazily from the
    dict); whichever is missing is derived on first use and cached.
    """

    __slots__ = ("_rows", "_arrays")

    def __init__(self, rows: Mapping[int, RowLike] = ()) -> None:
        cleaned: Dict[int, SparseDistribution] = {}
        for src, row in dict(rows).items():
            if not isinstance(row, SparseDistribution):
                row = SparseDistribution(row)
            if row:
                cleaned[src] = row
        self._rows = cleaned
        self._arrays = None

    # ------------------------------------------------------------------
    # The two views
    # ------------------------------------------------------------------
    def _row_map(self) -> Dict[int, SparseDistribution]:
        rows = self._rows
        if rows is None:
            src, lens, dst, val = self._arrays
            dsts, vals = dst.tolist(), val.tolist()
            rows = {}
            end = 0
            for s, k in zip(src.tolist(), lens.tolist()):
                if k:
                    start, end = end, end + k
                    rows[s] = SparseDistribution.wrap(
                        dict(zip(dsts[start:end], vals[start:end])))
            self._rows = rows
        return rows

    def arrays(self) -> CSRArrays:
        """The rows as CSR arrays ``(src, row_len, dst, val)``: row ``i``
        maps ``src[i]`` to the next ``row_len[i]`` entries of ``dst`` and
        ``val``. Read-only."""
        if self._arrays is None:
            self._arrays = CPTBlock.of([self])[2:]
        return self._arrays

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, src: int) -> SparseDistribution:
        """The destination distribution of one source (empty if absent)."""
        return self._row_map().get(src, _EMPTY_ROW)

    def rows(self) -> Iterable[Tuple[int, SparseDistribution]]:
        return self._row_map().items()

    def sources(self) -> FrozenSet[int]:
        return frozenset(self._row_map())

    def __contains__(self, src: int) -> bool:
        return src in self._row_map()

    def __iter__(self) -> Iterator[int]:
        return iter(self._row_map())

    def __len__(self) -> int:
        return len(self._row_map())

    def __bool__(self) -> bool:
        return bool(self._row_map())

    def num_entries(self) -> int:
        """Stored (source, destination) pairs."""
        return sum(len(row) for row in self._row_map().values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CPT):
            return NotImplemented
        return self._row_map() == other._row_map()

    def __repr__(self) -> str:
        return f"CPT({len(self)} rows, {self.num_entries()} entries)"

    def approx_equal(self, other: "CPT", tol: float = 1e-9) -> bool:
        """Entry-wise agreement within ``tol`` (the tests' and
        perfbench's oracle check; nothing in the library calls it)."""
        for src in self.sources() | other.sources():
            if not self.row(src).approx_equal(other.row(src), tol=tol):
                return False
        return True

    # ------------------------------------------------------------------
    # Stochasticity
    # ------------------------------------------------------------------
    def is_stochastic(self, tol: float = 1e-6) -> bool:
        """True when every row sums to 1 (a proper CPT; masked variants
        are sub-stochastic and fail this on purpose)."""
        return all(
            abs(row.total_mass - 1.0) <= tol
            for row in self._row_map().values()
        )

    # ------------------------------------------------------------------
    # The two core operations
    # ------------------------------------------------------------------
    def apply(self, dist: SparseDistribution) -> SparseDistribution:
        """Propagate a vector forward: ``out(y) = Σ_x v(x)·C(y|x)``.

        Mass on sources without a row is dropped (sub-stochastic
        behavior; stream CPTs cover their marginal's support, so
        nothing is lost on well-formed streams).
        """
        rows = self._row_map()
        out: Dict[int, float] = {}
        for x, px in dist.items():
            row = rows.get(x)
            if row is None:
                continue
            for y, pyx in row.items():
                out[y] = out.get(y, 0.0) + px * pyx
        return SparseDistribution(out)

    def compose(self, later: "CPT") -> "CPT":
        """Chain this CPT with one applied *after* it: if ``self`` spans
        ``t_i → t_k`` and ``later`` spans ``t_k → t_j``, the result
        spans ``t_i → t_j`` by the chain rule. The stepwise oracle of
        the tests and of perfbench's ``archive`` check: the library
        multiplies dense stacks instead (:meth:`MCIndex.build
        <repro.indexes.mc.MCIndex.build>`) or applies pieces in order."""
        return CPT({src: later.apply(row) for src, row in self.rows()})

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def mask_destinations(self, accept: Iterable[int]) -> "CPT":
        """Zero every transition into a state outside ``accept``
        (sub-stochastic conditioning for positive Kleene loops). Kept
        for the tests' stepwise oracles: the library masks dense stacks."""
        keep = accept if isinstance(accept, (set, frozenset)) else set(accept)
        return CPT({src: row.restrict_to(keep) for src, row in self.rows()})

    # ------------------------------------------------------------------
    # Serialization (storage record format; see the module docstring)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """This CPT's record (a block of one: batch many CPTs through
        :func:`encode_block` instead)."""
        return encode_block(CPTBlock.of([self]))[0]

    @classmethod
    def from_bytes(cls, data: bytes) -> "CPT":
        cpt = cls.__new__(cls)
        cpt._rows = None
        cpt._arrays = decode_block([data])[2:]
        return cpt


def _record_layout(data: bytes) -> Tuple[str, int, int, int, int]:
    """``(id dtype, id width, rows, offset of src, nnz)`` of one record,
    checking its width code and that its length fits exactly."""
    head, pos = ((data[0], 1) if data and data[0] < 0x80  # one byte
                 else decode_uvarint(data))
    count, code = head >> 2, head & 3
    if code == 3:
        raise StorageError("bad CPT record id width")
    width = 1 << code
    mid = pos + 2 * count * width
    if mid > len(data):
        raise StorageError("truncated CPT record")
    nnz, rest = divmod(len(data) - mid, width + 8)
    if rest:
        raise StorageError("bad CPT record length")
    return _ID_DTYPES[code], width, count, pos, nnz


def decode_block(records: Sequence[bytes]) -> CPTBlock:
    """Decode the CPT records of consecutive timesteps into one
    :class:`CPTBlock`, with every check of :meth:`CPT.from_bytes`:
    zero-copy views of each record's ``src | row_len``, ``dst`` and
    ``val``, one concatenation per view of the block."""
    heads, dsts, vals, counts, nnzs = [], [], [], [], []
    for data in records:
        dtype, width, count, pos, nnz = _record_layout(data)
        mid = pos + 2 * count * width
        heads.append(np.frombuffer(data, dtype, 2 * count, pos))
        dsts.append(np.frombuffer(data, dtype, nnz, mid))
        vals.append(np.frombuffer(data, "<f8", nnz, mid + nnz * width))
        counts.append(count)
        nnzs.append(nnz)
    steps, heads, counts = len(records), np.concatenate(heads), np.array(counts)
    step = np.arange(steps).repeat(counts)
    # Row i's src is heads[at[i]], and its row_len its record's count on.
    at = np.arange(len(step)) + (counts.cumsum() - counts).repeat(counts)
    row_len = heads[at + counts[step]]
    if np.bincount(step, row_len, steps).tolist() != nnzs:
        raise StorageError("bad CPT record length")
    return CPTBlock(steps, step, heads[at], row_len, np.concatenate(dsts),
                    np.concatenate(vals))


def encode_block(block: CPTBlock) -> List[bytes]:
    """The record of each step of ``block``, in order: the inverse of
    :func:`decode_block`, and the only record encoder. Each record's id
    width is the smallest that holds its largest id or row length. The
    fixed cost is per call, so encode many CPTs at once."""
    steps, step, src, lens, dst, val = block
    top = np.zeros(steps, np.int64)
    np.maximum.at(top, step, np.maximum(src, lens))
    np.maximum.at(top, np.repeat(step, lens), dst)
    if steps and top.max() >= 1 << 32:
        raise StorageError(f"CPT id {int(top.max())} does not fit a record")
    codes = (top >= 1 << 8).astype(int) + (top >= 1 << 16)
    rows = np.concatenate(([0], np.bincount(step, minlength=steps).cumsum()))
    ends = np.concatenate(([0], lens.cumsum(dtype=np.intp)))[rows]
    ints = {c: [a.astype(_ID_DTYPES[c]).tobytes() for a in (src, lens, dst)]
            for c in set(codes.tolist())}
    vals = val.astype("<f8", copy=False).tobytes()
    out = []
    for c, r0, r1, e0, e1 in zip(codes.tolist(), rows.tolist(),
                                 rows[1:].tolist(), ends.tolist(),
                                 ends[1:].tolist()):
        s, k, d = ints[c]
        w = 1 << c
        out.append(b"".join((encode_uvarint((r1 - r0) << 2 | c),
                             s[r0 * w:r1 * w], k[r0 * w:r1 * w],
                             d[e0 * w:e1 * w], vals[e0 * 8:e1 * 8])))
    return out
