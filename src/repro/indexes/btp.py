"""BT_P: the probability-ordered secondary index (§3.2).

Search keys are ``(attribute_value, probability, time)`` with the
probability component stored *descending* (via the
:class:`~repro.storage.keyenc.Desc` encoding), so a forward cursor scan
enumerates a value's timesteps from most to least probable — the sorted
access the Threshold-Algorithm-style top-k method (Algorithm 3) needs.

As in BT_C, the indexed probability of a dimension value is the sum over
attribute values mapping to it (§3.4.1), so join-indexed predicates get
exact sorted access with a single cursor.
"""

from __future__ import annotations

import heapq
import struct
from typing import List, Optional, Tuple

import numpy as np

from ..errors import KeyEncodingError
from ..storage.keyenc import (
    TAG_DESC,
    TAG_DESC_FLOAT,
    TAG_INT,
    Desc,
    desc_float_payload,
    encode_keys,
    int_payload,
)
from .base import ValueCursor

#: The key ``encode_keys((codes, Desc(probs), times))`` writes, 28
#: bytes: int tag, code, Desc and float tags, inverted probability,
#: int tag, time.
KEY = struct.Struct(">BQBBQBQ")
_TAGS = (TAG_INT, TAG_DESC, TAG_DESC_FLOAT, TAG_INT)


def encode(codes: np.ndarray, times: np.ndarray, probs: np.ndarray
           ) -> np.ndarray:
    """The BT_P entries of aggregated arrays, one row each: the key
    ``(code, Desc(prob), time)`` holds everything, the value is empty."""
    return encode_keys((codes, Desc(probs), times))


def decode(key: bytes, value: bytes) -> Tuple[int, float]:
    """``(time, prob)`` of one BT_P entry."""
    try:
        tag, _, desc_tag, float_tag, prob, time_tag, t = KEY.unpack(key)
    except struct.error:
        raise KeyEncodingError(f"BT_P key of {len(key)} bytes") from None
    if (tag, desc_tag, float_tag, time_tag) != _TAGS:
        raise KeyEncodingError(f"bad BT_P key tags in {key!r}")
    return int_payload(t), desc_float_payload(prob)


class ProbCursor(ValueCursor):
    """One value's entries in decreasing probability; ``seek()`` lands
    on the most probable."""

    decode = staticmethod(decode)


class PredicateProbCursor:
    """Sorted access for one predicate: entries from all of its index
    terms, merged in decreasing probability order (Alg 3, line 4).

    When a predicate is covered by a single term (equality predicates,
    or dimension predicates with a join index — whose entries already
    store the *summed* predicate probability), each popped probability is
    exactly the predicate's marginal at that timestep. With multiple
    terms (e.g. an un-joined ``InSet``), the popped value-level
    probability is a per-term bound; :attr:`bound_multiplier` reports the
    factor (number of terms) by which the threshold test must inflate it
    to stay sound.
    """

    def __init__(self, index_for_term, terms) -> None:
        self._cursors: List[ProbCursor] = [
            ProbCursor(index_for_term(term), term.value) for term in terms
        ]
        self._heap: List[Tuple[float, int, int]] = []
        self._started = False
        self.bound_multiplier = max(1, len(self._cursors))

    def _start(self) -> None:
        self._started = True
        for i, cursor in enumerate(self._cursors):
            if cursor.seek():
                heapq.heappush(self._heap, (-cursor.prob, cursor.time, i))

    def pop(self) -> Optional[Tuple[float, int]]:
        """The next (prob, time) in decreasing probability, or None."""
        if not self._started:
            self._start()
        if not self._heap:
            return None
        neg_prob, t, i = heapq.heappop(self._heap)
        cursor = self._cursors[i]
        if cursor.next():
            heapq.heappush(self._heap, (-cursor.prob, cursor.time, i))
        return -neg_prob, t

    def peek_prob(self) -> Optional[float]:
        """The highest remaining probability (the TA threshold input)."""
        if not self._started:
            self._start()
        if not self._heap:
            return None
        return -self._heap[0][0]
