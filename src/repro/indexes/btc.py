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
from typing import Iterable, List, Optional, Tuple

from ..errors import QueryError
from ..storage import BTree, encode_key, prefix_upper_bound
from ..storage.keyenc import decode_key
from .base import IndexedAttribute

_PROB = struct.Struct("<d")


class BTCIndex:
    """One BT_C index: a B+ tree over ``(value_code, time)`` keys."""

    def __init__(self, tree: BTree, indexed: IndexedAttribute) -> None:
        self.tree = tree
        self.indexed = indexed

    # ------------------------------------------------------------------
    def build(self, marginals: Iterable[Tuple[int, "SparseDistribution"]]) -> int:
        """Populate from ``(t, marginal)`` pairs; returns entry count.

        Entries are accumulated and bulk-loaded sorted by key.
        """
        items: List[Tuple[bytes, bytes]] = []
        for t, marginal in marginals:
            for value, prob in self.indexed.aggregate(marginal).items():
                key = encode_key((self.indexed.code(value), t))
                items.append((key, _PROB.pack(prob)))
        items.sort(key=lambda kv: kv[0])
        self.tree.bulk_load(items)
        self.tree.flush()
        return len(items)


class ChronoCursor:
    """Cursor over one value's (time, prob) entries, with seek/advance."""

    def __init__(self, index: BTCIndex, value) -> None:
        self._index = index
        if not index.indexed.has_value(value):
            self._cursor = None
            self._code = None
        else:
            self._code = index.indexed.code(value)
            self._cursor = index.tree.cursor()
            self._hi = prefix_upper_bound(encode_key((self._code,)))
        self._time: Optional[int] = None
        self._prob = 0.0
        self._done = self._cursor is None

    @property
    def valid(self) -> bool:
        return not self._done and self._time is not None

    @property
    def time(self) -> int:
        if not self.valid:
            raise QueryError("chrono cursor is exhausted")
        return self._time

    @property
    def prob(self) -> float:
        if not self.valid:
            raise QueryError("chrono cursor is exhausted")
        return self._prob

    def seek(self, t: int) -> bool:
        """Position on the first entry with time >= t."""
        if self._cursor is None:
            return False
        ok = self._cursor.seek(encode_key((self._code, t)))
        return self._load(ok)

    def next(self) -> bool:
        if self._cursor is None or self._done:
            return False
        return self._load(self._cursor.next())

    def _load(self, ok: bool) -> bool:
        if not ok or self._cursor.key >= self._hi:
            self._done = True
            self._time = None
            return False
        self._time = decode_key(self._cursor.key)[1]
        self._prob = _PROB.unpack(self._cursor.value)[0]
        return True


class PredicateChronoCursor:
    """Merged chronological cursor over all index terms of one predicate.

    Yields each relevant timestep once, with the predicate's summed
    marginal probability at that timestep, in increasing time order —
    the cursor abstraction Algorithms 2 and 4 advance in parallel.
    """

    def __init__(self, index_for_term, terms) -> None:
        """``index_for_term(term) -> BTCIndex`` resolves each term's index."""
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
