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
from typing import Iterable, List, Optional, Tuple

from ..errors import QueryError
from ..storage import BTree, Desc, encode_key, prefix_upper_bound
from ..storage.keyenc import decode_key
from .base import IndexedAttribute


class BTPIndex:
    """One BT_P index: a B+ tree over ``(value_code, Desc(prob), time)``."""

    def __init__(self, tree: BTree, indexed: IndexedAttribute) -> None:
        self.tree = tree
        self.indexed = indexed

    def build(self, marginals: Iterable[Tuple[int, "SparseDistribution"]]) -> int:
        """Populate from ``(t, marginal)`` pairs; returns entry count."""
        items: List[Tuple[bytes, bytes]] = []
        for t, marginal in marginals:
            for value, prob in self.indexed.aggregate(marginal).items():
                key = encode_key((self.indexed.code(value), Desc(prob), t))
                items.append((key, b""))
        items.sort(key=lambda kv: kv[0])
        self.tree.bulk_load(items)
        self.tree.flush()
        return len(items)


class ProbCursor:
    """Descending-probability cursor for one attribute value."""

    def __init__(self, index: BTPIndex, value) -> None:
        if not index.indexed.has_value(value):
            self._cursor = None
        else:
            code = index.indexed.code(value)
            prefix = encode_key((code,))
            self._lo = prefix
            self._hi = prefix_upper_bound(prefix)
            self._cursor = index.tree.cursor()
        self._prob = 0.0
        self._time: Optional[int] = None
        self._done = self._cursor is None
        self._started = False

    @property
    def valid(self) -> bool:
        return not self._done and self._time is not None

    @property
    def prob(self) -> float:
        if not self.valid:
            raise QueryError("probability cursor is exhausted")
        return self._prob

    @property
    def time(self) -> int:
        if not self.valid:
            raise QueryError("probability cursor is exhausted")
        return self._time

    def first(self) -> bool:
        """Position on the highest-probability entry."""
        if self._cursor is None:
            return False
        self._started = True
        return self._load(self._cursor.seek(self._lo))

    def next(self) -> bool:
        if self._cursor is None or self._done:
            return False
        if not self._started:
            return self.first()
        return self._load(self._cursor.next())

    def _load(self, ok: bool) -> bool:
        if not ok or self._cursor.key >= self._hi:
            self._done = True
            self._time = None
            return False
        decoded = decode_key(self._cursor.key)
        self._prob = decoded[1]
        self._time = decoded[2]
        return True


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
            if cursor.first():
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
