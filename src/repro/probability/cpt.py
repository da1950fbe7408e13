"""Conditional probability tables.

A CPT maps each source state to a sparse row distribution over
destination states — the ``C_t(x_{t+1} | x_t)`` objects a Markovian
stream stores between timesteps (§2.1). Everything the access methods
do reduces to two operations:

- :meth:`CPT.apply` — propagate a vector one step (the Reg operator's
  inner loop);
- :meth:`CPT.compose` — the chain rule
  ``p(t_j | t_i) = Σ_k p(t_j | t_k) · p(t_k | t_i)`` (what the MC index
  precomputes so irrelevant gaps cost ``O(log gap)`` multiplications).

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
largest id or row length, so it comes from the data. Decoding is two
``np.frombuffer`` calls; the dict rows that :meth:`CPT.row`,
:meth:`CPT.apply` and :meth:`CPT.compose` walk are built from them only
on first use, while the Reg kernel reads :meth:`CPT.arrays` directly.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union

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
        ``val``. Read-only; the Reg kernel's one input."""
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
        head, pos = decode_uvarint(data)
        count, code = head >> 2, head & 3
        if code == 3:
            raise StorageError("bad CPT record id width")
        width = 1 << code
        mid = pos + 2 * count * width
        if mid > len(data):
            raise StorageError("truncated CPT record")
        nnz, rest = divmod(len(data) - mid, width + 8)
        # One widening copy of src | row_len | dst to intp, so the Reg
        # kernel's scatter indexes without a per-call cast.
        ints = np.frombuffer(data, _ID_DTYPES[code], 2 * count + nnz,
                             pos).astype(np.intp)
        lens = ints[count:2 * count]
        if rest or sum(lens.tolist()) != nnz:
            raise StorageError("bad CPT record length")
        cpt = cls.__new__(cls)
        cpt._rows = None
        cpt._arrays = (ints[:count], lens, ints[2 * count:],
                       np.frombuffer(data, "<f8", nnz, mid + nnz * width))
        return cpt


def validate_cpt(cpt: CPT, tol: float = 1e-6) -> None:
    """Raise :class:`~repro.errors.StreamError` unless every row is a
    probability distribution."""
    for src, row in cpt.rows():
        mass = row.total_mass
        if abs(mass - 1.0) > tol:
            raise StreamError(
                f"CPT row for source {src} has mass {mass:.9f}, expected 1"
            )
