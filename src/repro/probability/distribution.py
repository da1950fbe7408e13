"""Sparse discrete distributions.

A Markovian stream's per-timestep marginal has tiny support (a handful
of plausible locations out of hundreds), so distributions are stored as
``{state_id: probability}`` dicts holding only nonzero entries. The
class doubles as a sparse nonnegative vector: evidence likelihoods and
Reg's unnormalized per-NFA-state masses use the same type, so
construction does *not* normalize — call :meth:`normalize` where a
probability distribution is required.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

from ..errors import StreamError
from ..storage.record import pack_pairs, unpack_pairs


class SparseDistribution:
    """An immutable sparse map from state id to nonnegative weight."""

    __slots__ = ("_probs",)

    def __init__(self, probs: Mapping[int, float] = ()) -> None:
        cleaned: Dict[int, float] = {}
        for state, p in dict(probs).items():
            if p < 0.0:
                raise StreamError(
                    f"negative probability {p} for state {state!r}"
                )
            if p > 0.0:
                cleaned[state] = float(p)
        self._probs = cleaned

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, state: int) -> "SparseDistribution":
        """All mass on one state."""
        return cls({state: 1.0})

    @classmethod
    def uniform(cls, states: Iterable[int]) -> "SparseDistribution":
        """Equal mass on each given state."""
        states = list(states)
        if not states:
            raise StreamError("uniform distribution needs at least one state")
        p = 1.0 / len(states)
        return cls({s: p for s in states})

    @classmethod
    def wrap(cls, probs: Dict[int, float]) -> "SparseDistribution":
        """Adopt a dict of positive float weights as-is: no copy and no
        checks (the decoded-record fast path; callers own validity)."""
        dist = cls.__new__(cls)
        dist._probs = probs
        return dist

    # ------------------------------------------------------------------
    # Mapping surface
    # ------------------------------------------------------------------
    def prob(self, state: int) -> float:
        """The weight of one state (0.0 when outside the support)."""
        return self._probs.get(state, 0.0)

    def items(self) -> Iterable[Tuple[int, float]]:
        return self._probs.items()

    def values(self) -> Iterable[float]:
        return self._probs.values()

    def support(self) -> FrozenSet[int]:
        return frozenset(self._probs)

    def as_arrays(self):
        """``(state_ids, weights)`` as parallel NumPy arrays — the
        C-speed export the vectorized Reg kernel densifies rows with.
        Both arrays follow the dict's (stable) iteration order."""
        import numpy as np

        n = len(self._probs)
        return (
            np.fromiter(self._probs.keys(), dtype=np.int64, count=n),
            np.fromiter(self._probs.values(), dtype=np.float64, count=n),
        )

    def __contains__(self, state: int) -> bool:
        return state in self._probs

    def __iter__(self) -> Iterator[int]:
        return iter(self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def __bool__(self) -> bool:
        return bool(self._probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseDistribution):
            return NotImplemented
        return self._probs == other._probs

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{s}: {p:.4g}" for s, p in sorted(self._probs.items())
        )
        return f"SparseDistribution({{{inside}}})"

    def approx_equal(self, other: "SparseDistribution",
                     tol: float = 1e-9) -> bool:
        """Entry-wise agreement within ``tol``."""
        states = self.support() | other.support()
        return all(
            abs(self.prob(s) - other.prob(s)) <= tol for s in states
        )

    # ------------------------------------------------------------------
    # Mass
    # ------------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        return sum(self._probs.values())

    def is_normalized(self, tol: float = 1e-9) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def normalize(self) -> "SparseDistribution":
        """A copy rescaled to unit mass."""
        total = self.total_mass
        if total <= 0.0:
            raise StreamError("cannot normalize an empty distribution")
        if abs(total - 1.0) <= 1e-15:
            return self
        return SparseDistribution(
            {s: p / total for s, p in self._probs.items()}
        )

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def add(self, other: "SparseDistribution") -> "SparseDistribution":
        """Weight-wise sum (mixing unnormalized masses)."""
        out = dict(self._probs)
        for s, p in other.items():
            out[s] = out.get(s, 0.0) + p
        return SparseDistribution(out)

    def restrict_to(self, states: Iterable[int]) -> "SparseDistribution":
        """Mass outside ``states`` dropped (unnormalized)."""
        keep = states if isinstance(states, (set, frozenset)) else set(states)
        return SparseDistribution(
            {s: p for s, p in self._probs.items() if s in keep}
        )

    def mass_on(self, states: Iterable[int]) -> float:
        """Summed weight of the given states."""
        return sum(self._probs.get(s, 0.0) for s in states)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def max_state(self) -> Tuple[int, float]:
        """The highest-weight ``(state, weight)`` pair."""
        if not self._probs:
            raise StreamError("empty distribution has no maximum")
        return max(self._probs.items(), key=lambda sp: sp[1])

    def top(self, k: int) -> List[Tuple[int, float]]:
        """The k highest-weight entries, by decreasing weight."""
        return sorted(self._probs.items(), key=lambda sp: (-sp[1], sp[0]))[:k]

    # ------------------------------------------------------------------
    # Serialization (storage record format)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        return pack_pairs(sorted(self._probs.items()))

    @classmethod
    def from_bytes(cls, data: bytes, pos: int = 0) -> "SparseDistribution":
        pairs, _ = unpack_pairs(data, pos)
        return cls(dict(pairs))
