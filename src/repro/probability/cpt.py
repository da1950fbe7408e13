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
(its inverse) a block into K records (:data:`ENCODE_STEPS` at a pass,
so its temporaries stay small), neither with a Python loop over the
records but one slice each, so each costs a fixed number of NumPy calls
per call and callers batch: pass whole blocks. The synthetic
generators emit a stream's block as arrays already in record order;
:meth:`CPTBlock.of` gathers dict-row :class:`CPT` objects into one (for
the dict-row stream constructor, the tests and the oracles). The Reg kernel and the MC
index build compute on a block as dense ``(K, n, n)`` stacks
(:func:`densify`, and :func:`sparsify` back). :meth:`CPT.from_bytes`
and :meth:`CPT.to_bytes` are blocks of one, and a CPT read from a
record or a block builds the dict rows that :meth:`CPT.row` and
:meth:`CPT.apply` walk only on first use.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import compress, repeat
from operator import getitem
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Sequence, Tuple, Union)

import numpy as np

from ..errors import CatalogError, StorageError
from ..storage.record import place, uvarint_digits
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

#: A record header's byte positions and their uvarint powers, the
#: slice that holds it, and the padding that lets its window start on
#: any record.
_HEADER = np.arange(10)
_POWERS = 128 ** np.arange(9)
_HEAD = slice(len(_HEADER))
_PAD = bytes(len(_HEADER))

#: Steps :func:`encode_block` encodes per pass: the fixed cost of a
#: pass is amortized, and its temporary arrays stay small.
ENCODE_STEPS = 1024

#: Float budget of one dense stack: K steps over ``n`` states densify
#: ``K · n²`` floats, so K is at most ``BLOCK_FLOATS // n²`` (128 KiB).
BLOCK_FLOATS = 1 << 14


def stack_steps(n: int) -> int:
    """Most steps over ``n`` states one dense stack holds (at least 1)."""
    return max(1, BLOCK_FLOATS // (n * n))


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

    def batches(self, size: int) -> Iterator["CPTBlock"]:
        """The block as consecutive blocks of at most ``size`` steps
        each (steps renumbered from 0), slices of this one's arrays."""
        rows = np.searchsorted(
            self.step, np.arange(0, self.steps + size, size)).tolist()
        cells = np.concatenate(
            ([0], np.cumsum(self.row_len, dtype=np.int64)))[rows].tolist()
        for i, lo in enumerate(range(0, self.steps, size)):
            r0, r1, e0, e1 = rows[i], rows[i + 1], cells[i], cells[i + 1]
            yield CPTBlock(min(size, self.steps - lo), self.step[r0:r1] - lo,
                           self.src[r0:r1], self.row_len[r0:r1],
                           self.dst[e0:e1], self.val[e0:e1])

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
        return cls.from_arrays(decode_block([data])[2:])

    @classmethod
    def from_arrays(cls, arrays: CSRArrays) -> "CPT":
        """A CPT over the CSR arrays ``(src, row_len, dst, val)`` of
        :meth:`arrays`, adopted as they are (rows by source, each row's
        entries by destination)."""
        cpt = cls.__new__(cls)
        cpt._rows = None
        cpt._arrays = arrays
        return cpt


def decode_block(records: Sequence[bytes]) -> CPTBlock:
    """Decode the CPT records of consecutive timesteps into one
    :class:`CPTBlock`, with every check of :meth:`CPT.from_bytes`, and
    no Python loop over the records: the headers are read off the
    records' first bytes joined into one buffer, and each region
    (``src | row_len``, ``dst``, ``val``) is cut out of every record and
    joined into one array, per id width present. The fixed cost is per
    call, so decode many records at once."""
    steps = len(records)
    size = np.fromiter(map(len, records), np.int64, steps)
    # The uvarint header: up to 10 bytes, ended by one below 0x80. A
    # tenth byte above 0 makes 2**61 rows or more: past any record.
    lead = np.minimum(size, len(_HEADER))
    leads = b"".join((*map(getitem, records, repeat(_HEAD, steps)), _PAD))
    window = np.frombuffer(leads, np.uint8)[
        (lead.cumsum() - lead)[:, None] + _HEADER]
    more = window >= 0x80
    hlen = more.argmin(axis=1) + 1
    if (more.all(axis=1) | (hlen > size)
            | ((hlen == 10) & (window[:, 9] > 0))).any():
        raise StorageError("truncated or overlong CPT record header")
    # Its first nine bytes hold at most 63 bits: an int64.
    head = np.where(_HEADER[:9] < hlen[:, None], window[:, :9] & 0x7F,
                    0) @ _POWERS
    code = head & 3
    if (code == 3).any():
        raise StorageError("bad CPT record id width")
    width = 1 << code
    room = size - hlen
    count = head >> 2
    if (count > room // (2 * width)).any():
        raise StorageError("truncated CPT record")
    nnz, rest = np.divmod(room - 2 * count * width, width + 8)
    if rest.any():
        raise StorageError("bad CPT record length")
    # Each record's regions, as offsets into the record.
    vals = size - 8 * nnz
    dsts = vals - nnz * width
    views = list(map(memoryview, records))
    codes = sorted(set(code.tolist())) or [0]

    def ids(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The ids in ``records[i][lo[i]:hi[i]]`` of every record ``i``,
        as the widest id dtype present."""
        if len(codes) == 1:
            return np.frombuffer(_cut(views, lo, hi), _ID_DTYPES[codes[0]])
        kind = np.repeat(code, (hi - lo) // width)
        out = np.empty(len(kind), _ID_DTYPES[codes[-1]])
        for c in codes:
            mine = code == c
            out[kind == c] = np.frombuffer(
                _cut(compress(views, mine.tolist()), lo[mine], hi[mine]),
                _ID_DTYPES[c])
        return out

    heads = ids(hlen, dsts)
    step = np.arange(steps).repeat(count)
    # Row i's src is heads[at[i]], and its row_len its record's count on.
    at = np.arange(len(step)) + (count.cumsum() - count).repeat(count)
    row_len = heads[at + count[step]]
    if not np.array_equal(np.bincount(step, row_len, steps), nnz):
        raise StorageError("bad CPT record length")
    return CPTBlock(steps, step, heads[at], row_len, ids(dsts, vals),
                    np.frombuffer(_cut(views, vals, size), "<f8"))


def _cut(views: Iterable[memoryview], lo: np.ndarray,
         hi: np.ndarray) -> bytes:
    """``view[lo[i]:hi[i]]`` of the ``i``-th view, joined: one copy."""
    return b"".join(map(getitem, views, map(slice, lo.tolist(),
                                            hi.tolist())))


def encode_block(block: CPTBlock) -> List[bytes]:
    """The record of each step of ``block``, in order: the inverse of
    :func:`decode_block`, and the only record encoder. Each record's id
    width is the smallest that holds its largest id or row length. Per
    pass of up to :data:`ENCODE_STEPS` steps, every header, id and value
    is placed in one buffer with a fixed number of NumPy calls, then cut
    into records: pass whole blocks."""
    return [record for part in block.batches(ENCODE_STEPS)
            for record in _encode(part)]


def _encode(block: CPTBlock) -> List[bytes]:
    """:func:`encode_block` of one pass."""
    steps, step, src, lens, dst, val = block
    cell = np.repeat(step, lens)
    top = np.zeros(steps, np.int64)
    np.maximum.at(top, step, np.maximum(src, lens))
    np.maximum.at(top, cell, dst)
    if top.max() >= 1 << 32:
        raise StorageError(f"CPT id {int(top.max())} does not fit a record")
    code = (top >= 1 << 8).astype(np.int64) + (top >= 1 << 16)
    width = 1 << code
    rows = np.bincount(step, minlength=steps)
    nnz = np.bincount(cell, minlength=steps)
    head_len, head = uvarint_digits(rows << 2 | code)
    size = head_len + (2 * rows + nnz) * width + 8 * nnz
    ends = np.cumsum(size)
    # Where each record's src, row_len, dst and val regions begin.
    src_at = ends - size + head_len
    dst_at = src_at + 2 * rows * width
    val_at = dst_at + nnz * width
    out = np.empty(int(ends[-1]), np.uint8)
    place(out, ends - size, head_len, head)
    # Every id as the widest record's bytes; each record keeps its own
    # width's first bytes (little-endian). ``k``: the row (entry) of its
    # record.
    dtype = _ID_DTYPES[int(code.max(initial=0))]
    k = np.arange(len(step)) - (np.cumsum(rows) - rows)[step]
    w = width[step]
    for ids, at in ((src, src_at[step] + k * w),
                    (lens, src_at[step] + (rows[step] + k) * w)):
        place(out, at, w, _id_bytes(ids, dtype))
    k = np.arange(len(cell)) - (np.cumsum(nnz) - nnz)[cell]
    place(out, dst_at[cell] + k * width[cell], width[cell],
          _id_bytes(dst, dtype))
    out[(val_at[cell] + 8 * k)[:, None] + np.arange(8)] = \
        np.ascontiguousarray(val, "<f8").view(np.uint8).reshape(-1, 8)
    data = out.tobytes()
    cuts = [0] + ends.tolist()
    return [data[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _id_bytes(ids: np.ndarray, dtype: str) -> np.ndarray:
    """Each id's little-endian bytes in ``dtype``, one row per id."""
    return np.asarray(ids).astype(dtype).view(np.uint8).reshape(
        len(ids), np.dtype(dtype).itemsize)
