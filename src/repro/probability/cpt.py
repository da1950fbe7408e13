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
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union

from ..errors import StreamError
from ..storage.record import (
    decode_uvarint,
    encode_uvarint,
    pack_pairs,
    unpack_pairs,
)
from .distribution import SparseDistribution

_EMPTY_ROW = SparseDistribution()

RowLike = Union[SparseDistribution, Mapping[int, float]]


class CPT:
    """A sparse source → (destination → probability) table."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Mapping[int, RowLike] = ()) -> None:
        cleaned: Dict[int, SparseDistribution] = {}
        for src, row in dict(rows).items():
            if not isinstance(row, SparseDistribution):
                row = SparseDistribution(row)
            if row:
                cleaned[src] = row
        self._rows = cleaned

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, states: Iterable[int]) -> "CPT":
        """Each state maps to itself with probability 1."""
        return cls({s: {s: 1.0} for s in states})

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, src: int) -> SparseDistribution:
        """The destination distribution of one source (empty if absent)."""
        return self._rows.get(src, _EMPTY_ROW)

    def rows(self) -> Iterable[Tuple[int, SparseDistribution]]:
        return self._rows.items()

    def sources(self) -> FrozenSet[int]:
        return frozenset(self._rows)

    def destinations(self) -> FrozenSet[int]:
        out = set()
        for row in self._rows.values():
            out.update(row.support())
        return frozenset(out)

    def __contains__(self, src: int) -> bool:
        return src in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def num_entries(self) -> int:
        """Stored (source, destination) pairs."""
        return sum(len(row) for row in self._rows.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CPT):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"CPT({len(self._rows)} rows, {self.num_entries()} entries)"

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
            abs(row.total_mass - 1.0) <= tol for row in self._rows.values()
        )

    def normalize_rows(self) -> "CPT":
        """Each nonempty row rescaled to unit mass."""
        return CPT({src: row.normalize() for src, row in self._rows.items()})

    # ------------------------------------------------------------------
    # The two core operations
    # ------------------------------------------------------------------
    def apply(self, dist: SparseDistribution) -> SparseDistribution:
        """Propagate a vector forward: ``out(y) = Σ_x v(x)·C(y|x)``.

        Mass on sources without a row is dropped (sub-stochastic
        behavior; stream CPTs cover their marginal's support, so
        nothing is lost on well-formed streams).
        """
        out: Dict[int, float] = {}
        for x, px in dist.items():
            row = self._rows.get(x)
            if row is None:
                continue
            for y, pyx in row.items():
                out[y] = out.get(y, 0.0) + px * pyx
        return SparseDistribution(out)

    def compose(self, later: "CPT") -> "CPT":
        """Chain this CPT with one applied *after* it: if ``self`` spans
        ``t_i → t_k`` and ``later`` spans ``t_k → t_j``, the result
        spans ``t_i → t_j`` by the chain rule."""
        return CPT(
            {src: later.apply(row) for src, row in self._rows.items()}
        )

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def mask_destinations(self, accept: Iterable[int]) -> "CPT":
        """Zero every transition into a state outside ``accept``
        (sub-stochastic conditioning for positive Kleene loops)."""
        keep = accept if isinstance(accept, (set, frozenset)) else set(accept)
        return CPT(
            {src: row.restrict_to(keep) for src, row in self._rows.items()}
        )

    # ------------------------------------------------------------------
    # Serialization (storage record format)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        parts = [encode_uvarint(len(self._rows))]
        for src in sorted(self._rows):
            parts.append(encode_uvarint(src))
            parts.append(pack_pairs(sorted(self._rows[src].items())))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, pos: int = 0) -> "CPT":
        count, pos = decode_uvarint(data, pos)
        rows: Dict[int, Dict[int, float]] = {}
        for _ in range(count):
            src, pos = decode_uvarint(data, pos)
            pairs, pos = unpack_pairs(data, pos)
            rows[src] = dict(pairs)
        return cls(rows)


def validate_cpt(cpt: CPT, tol: float = 1e-6) -> None:
    """Raise :class:`~repro.errors.StreamError` unless every row is a
    probability distribution."""
    for src, row in cpt.rows():
        mass = row.total_mass
        if abs(mass - 1.0) > tol:
            raise StreamError(
                f"CPT row for source {src} has mass {mass:.9f}, expected 1"
            )
