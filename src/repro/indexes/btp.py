"""BT_P: the probability-ordered secondary index (§3.2).

Search keys are ``(attribute_value, probability, time)`` with the
probability component stored *descending* (via the
:class:`~repro.storage.keyenc.Desc` encoding), so a forward scan of a
value's key range enumerates its timesteps from most to least probable
— the sorted access the Threshold-Algorithm-style top-k method
(Algorithm 3) needs. :class:`PredicateProbCursor` merges a predicate's
terms, popping from each term's entries a leaf at a time.

As in BT_C, the indexed probability of a dimension value is the sum over
attribute values mapping to it (§3.4.1), so join-indexed predicates get
exact sorted access from a single term.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from ..storage.keyenc import Desc, FixedKey, encode_keys

#: The key ``encode_keys((codes, Desc(probs), times))`` writes, 28
#: bytes.
KEY = FixedKey(int, Desc(float), int)


def encode(codes: np.ndarray, times: np.ndarray, probs: np.ndarray
           ) -> np.ndarray:
    """The BT_P entries of aggregated arrays, one row each: the key
    ``(code, Desc(prob), time)`` holds everything, the value is empty."""
    return encode_keys((codes, Desc(probs), times))


def decode_entries(keys: bytes, values: bytes
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(codes, times, probs)`` of consecutive BT_P entries, given
    their keys joined back to back (the values are empty)."""
    codes, probs, times = KEY.decode(keys)
    return codes, times, probs


class PredicateProbCursor:
    """Sorted access for one predicate: entries from all of its index
    terms, merged in decreasing probability order (Alg 3, line 4).

    Each term's entries arrive a leaf at a time; the next leaf is read
    when the last entry of the one before is popped, and nothing is
    read before the first :meth:`pop` or :meth:`peek_prob`.

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
        self._leaves = [index_for_term(term).entries(term.value)
                        for term in terms]
        #: Per term: the current leaf's times and probs, and the slot
        #: of the entry on the heap.
        self._current: List[Tuple[list, list, int]] = \
            [([], [], 0)] * len(terms)
        self._heap: List[Tuple[float, int, int]] = []
        self._started = False
        self.bound_multiplier = max(1, len(terms))

    def _push(self, i: int, slot: int) -> None:
        """Put term ``i``'s entry at ``slot`` on the heap, reading its
        next leaf when the current one is used up."""
        times, probs, _ = self._current[i]
        if slot == len(times):
            leaf = next(self._leaves[i], None)
            if leaf is None:
                return
            times, probs = leaf[0].tolist(), leaf[1].tolist()
            slot = 0
        self._current[i] = (times, probs, slot)
        heapq.heappush(self._heap, (-probs[slot], times[slot], i))

    def _start(self) -> None:
        self._started = True
        for i in range(len(self._leaves)):
            self._push(i, 0)

    def pop(self) -> Optional[Tuple[float, int]]:
        """The next (prob, time) in decreasing probability, or None."""
        if not self._started:
            self._start()
        if not self._heap:
            return None
        neg_prob, t, i = heapq.heappop(self._heap)
        self._push(i, self._current[i][2] + 1)
        return -neg_prob, t

    def peek_prob(self) -> Optional[float]:
        """The highest remaining probability (the TA threshold input)."""
        if not self._started:
            self._start()
        if not self._heap:
            return None
        return -self._heap[0][0]
