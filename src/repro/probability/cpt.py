"""Conditional probability tables.

A CPT maps each source state to a sparse row distribution over
destination states — the ``C_t(x_{t+1} | x_t)`` objects a Markovian
stream stores between timesteps (§2.1). :meth:`CPT.apply` propagates a
vector one step, and :meth:`CPT.compose` is the chain rule
``p(t_j | t_i) = Σ_k p(t_j | t_k) · p(t_k | t_i)``, which only the MC
index's build uses: a query applies a gap's pieces in order instead.

Rows of a stream CPT are stochastic (sum to 1); masked variants
(:meth:`mask_destinations`, for predicate-conditioned Kleene loops,
§3.3.2) are deliberately *sub*-stochastic — the lost mass is exactly
the probability of leaving the loop.

Record layout
-------------
A stored CPT is raw CSR: one uvarint header ``rows << 2 | code``, then
``src[rows]``, ``row_len[rows]`` and ``dst[nnz]`` as little-endian
unsigned ints of ``1 << code`` bytes, then ``val[nnz]`` as ``<f8``. The
id width is the smallest of 1, 2 or 4 bytes that holds the record's
largest id or row length, so it comes from the data. One decoder,
:func:`decode_block`, turns K records into a :class:`CPTBlock`, the
Reg kernel's one input; :meth:`CPT.from_bytes` is a block of one, and
the dict rows that :meth:`CPT.row`, :meth:`CPT.apply` and
:meth:`CPT.compose` walk are built from its arrays only on first use.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import reduce
from itertools import chain
from typing import (Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence,
                    Tuple, Union)

import numpy as np

from ..errors import CatalogError, StorageError, StreamError
from ..storage.record import decode_uvarint, encode_uvarint
from .distribution import SparseDistribution

_EMPTY_ROW = SparseDistribution()

RowLike = Union[SparseDistribution, Mapping[int, float]]

#: ``(src, row_len, dst, val)``: a CPT's rows as CSR arrays.
CSRArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Version of the stored CPT record layout. Archives and MC indexes
#: write it into their metadata and refuse to open any other.
RECORD_VERSION = 2

#: Per id-width code (width ``1 << code`` bytes): NumPy dtype, struct code.
_ID_DTYPES = ("<u1", "<u2", "<u4")
_ID_FORMATS = "BHI"


class CPTBlock(namedtuple("CPTBlock", "steps step src row_len dst val")):
    """``steps`` CPTs applied in order (adjacent timesteps, or an MC
    gap's pieces) as one CSR block: row ``i`` maps source ``src[i]`` of
    CPT ``step[i]`` to the next ``row_len[i]`` entries of ``dst`` and
    ``val``, rows in step order."""

    __slots__ = ()

    def cpts(self) -> Iterator["CPT"]:
        """Each step in order, as a :class:`CPT` viewing the arrays."""
        rows = np.searchsorted(self.step, np.arange(self.steps + 1))
        ends = np.concatenate(([0], self.row_len.cumsum(dtype=np.intp)))
        rows, ends = rows.tolist(), ends[rows].tolist()
        for r0, r1, e0, e1 in zip(rows, rows[1:], ends, ends[1:]):
            cpt = CPT.__new__(CPT)
            cpt._rows = None
            cpt._arrays = (self.src[r0:r1], self.row_len[r0:r1],
                           self.dst[e0:e1], self.val[e0:e1])
            yield cpt

    def approx_equal(self, other: "CPT", tol: float = 1e-9) -> bool:
        """Whether the dense product of the steps, in order, equals
        ``other`` entry-wise within ``tol`` (an oracle's check)."""
        src, lens, dst, val = other.arrays()
        n = 1 + max(int(ids.max(initial=0))
                    for ids in (self.src, self.dst, src, dst))
        stack = np.zeros((self.steps + 1, n, n))
        stack[np.repeat(self.step, self.row_len),
              np.repeat(self.src, self.row_len), self.dst] = self.val
        stack[-1, np.repeat(src, lens), dst] = val
        got = reduce(np.matmul, stack[:-1])
        return bool(np.abs(got - stack[-1]).max() <= tol)


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
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, states: Iterable[int]) -> "CPT":
        """Each state maps to itself with probability 1."""
        return cls({s: {s: 1.0} for s in states})

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
        arrays = self._arrays
        if arrays is None:
            rows = self._rows
            lens = np.fromiter(map(len, rows.values()), np.int64, len(rows))
            nnz = int(lens.sum())
            arrays = self._arrays = (
                np.fromiter(rows, np.int64, len(rows)),
                lens,
                np.fromiter(chain.from_iterable(rows.values()), np.int64,
                            nnz),
                np.fromiter(chain.from_iterable(
                    r.values() for r in rows.values()), np.float64, nnz),
            )
        return arrays

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

    def destinations(self) -> FrozenSet[int]:
        out = set()
        for row in self._row_map().values():
            out.update(row.support())
        return frozenset(out)

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

    def normalize_rows(self) -> "CPT":
        """Each nonempty row rescaled to unit mass."""
        return CPT({src: row.normalize() for src, row in self.rows()})

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
        spans ``t_i → t_j`` by the chain rule."""
        return CPT({src: later.apply(row) for src, row in self.rows()})

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def mask_destinations(self, accept: Iterable[int]) -> "CPT":
        """Zero every transition into a state outside ``accept``
        (sub-stochastic conditioning for positive Kleene loops)."""
        keep = accept if isinstance(accept, (set, frozenset)) else set(accept)
        return CPT({src: row.restrict_to(keep) for src, row in self.rows()})

    # ------------------------------------------------------------------
    # Serialization (storage record format; see the module docstring)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        rows = self._row_map()
        srcs = sorted(rows)
        lens = [len(rows[s]) for s in srcs]
        dsts, vals = [], []
        for s in srcs:
            for d, p in sorted(rows[s].items()):
                dsts.append(d)
                vals.append(p)
        top = max(srcs[-1], max(lens), max(dsts)) if srcs else 0
        if top >= 1 << 32:
            raise StorageError(f"CPT id {top} does not fit a record")
        code = 0 if top < 1 << 8 else 1 if top < 1 << 16 else 2
        ints = 2 * len(srcs) + len(dsts)
        return encode_uvarint(len(srcs) << 2 | code) + struct.pack(
            f"<{ints}{_ID_FORMATS[code]}{len(vals)}d",
            *srcs, *lens, *dsts, *vals)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CPT":
        return next(decode_block([data]).cpts())


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


def validate_cpt(cpt: CPT, tol: float = 1e-6) -> None:
    """Raise :class:`~repro.errors.StreamError` unless every row is a
    probability distribution."""
    for src, row in cpt.rows():
        mass = row.total_mass
        if abs(mass - 1.0) > tol:
            raise StreamError(
                f"CPT row for source {src} has mass {mass:.9f}, expected 1"
            )
