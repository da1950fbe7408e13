"""BT_C: the chronological secondary index (§3.1).

Search keys are ``(attribute_value, time)``; within one attribute value,
entries are ordered chronologically — the layout that makes the
temporally-aware merge join of Algorithm 2 a linear cursor walk. Entry
values store the summed marginal probability of the attribute value at
that timestep (only nonzero probabilities are indexed, which is what
makes skipping exact: a timestep absent from every relevant value's
entries has zero mass on every query predicate).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

import numpy as np

from ..errors import KeyEncodingError, QueryError
from ..storage.keyenc import TAG_INT, encode_keys, int_payload
from .base import ValueCursor

#: The key ``encode_keys((codes, times))`` writes, 18 bytes: int tag,
#: code, int tag, time.
KEY = struct.Struct(">BQBQ")
_PROB = struct.Struct("<d")


def encode(codes: np.ndarray, times: np.ndarray, probs: np.ndarray
           ) -> np.ndarray:
    """The BT_C entries of aggregated arrays, one row each: the key
    ``(code, time)`` followed by the probability's 8 value bytes."""
    values = probs.astype(_PROB.format).view(np.uint8).reshape(-1, 8)
    return np.hstack((encode_keys((codes, times)), values))


def decode(key: bytes, value: bytes) -> Tuple[int, float]:
    """``(time, prob)`` of one BT_C entry."""
    try:
        tag, _, time_tag, t = KEY.unpack(key)
    except struct.error:
        raise KeyEncodingError(f"BT_C key of {len(key)} bytes") from None
    if tag != TAG_INT or time_tag != TAG_INT:
        raise KeyEncodingError(f"bad BT_C key tags in {key!r}")
    return int_payload(t), _PROB.unpack(value)[0]


class ChronoCursor(ValueCursor):
    """One value's entries in time order; ``seek(t)`` lands on the first
    entry at or after ``t``."""

    decode = staticmethod(decode)


class PredicateChronoCursor:
    """Merged chronological cursor over all index terms of one predicate.

    Yields each relevant timestep once, with the predicate's summed
    marginal probability at that timestep, in increasing time order —
    the cursor abstraction Algorithms 2 and 4 advance in parallel.
    """

    def __init__(self, index_for_term, terms) -> None:
        """``index_for_term(term) -> ValueIndex`` resolves each term's
        BT_C index."""
        self._cursors: List[ChronoCursor] = [
            ChronoCursor(index_for_term(term), term.value) for term in terms
        ]
        self._time: Optional[int] = None
        self._prob = 0.0
        self._started = False

    @property
    def valid(self) -> bool:
        return self._time is not None

    @property
    def time(self) -> int:
        if self._time is None:
            raise QueryError("predicate cursor is exhausted")
        return self._time

    @property
    def prob(self) -> float:
        if self._time is None:
            raise QueryError("predicate cursor is exhausted")
        return self._prob

    def seek(self, t: int) -> bool:
        """Position on the first relevant timestep >= t."""
        for cursor in self._cursors:
            cursor.seek(t)
        self._started = True
        return self._aggregate()

    def next(self) -> bool:
        """Advance past the current timestep."""
        if not self._started:
            return self.seek(0)
        if self._time is None:
            return False
        current = self._time
        for cursor in self._cursors:
            while cursor.valid and cursor.time <= current:
                cursor.next()
        return self._aggregate()

    def advance_to(self, t: int) -> bool:
        """Position on the first relevant timestep >= t (forward only)."""
        if not self._started:
            return self.seek(t)
        if self._time is not None and self._time >= t:
            return True
        for cursor in self._cursors:
            while cursor.valid and cursor.time < t:
                # Cheap skip via seek when far away; linear next otherwise.
                if t - cursor.time > 8:
                    cursor.seek(t)
                else:
                    cursor.next()
        return self._aggregate()

    def _aggregate(self) -> bool:
        times = [c.time for c in self._cursors if c.valid]
        if not times:
            self._time = None
            self._prob = 0.0
            return False
        t = min(times)
        self._time = t
        self._prob = sum(c.prob for c in self._cursors if c.valid and c.time == t)
        return True
