"""Per-entry value-index cursors: the reference for the array reads.

These are the cursors BT_C and BT_P were once read through, one entry
at a time, rebuilt on :meth:`BTree.range_items` (which reads the pages
a per-entry cursor reads, in the same order): a value's cursor, the
merged predicate cursors, Algorithm 2's temporally-aware merge join
with its seek rule, the relevant-event collection of Algorithms 4 and
5, and Algorithm 3's sorted access. The array reads must find the same
events, anchors and pops, and read no more pages.
"""

import heapq
import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.storage import encode_key, prefix_upper_bound
from repro.storage.keyenc import decode_key

_PROB = struct.Struct("<d")


def decode_btc(key: bytes, value: bytes) -> Tuple[int, float]:
    _, t = decode_key(key)
    return t, _PROB.unpack(value)[0]


def decode_btp(key: bytes, value: bytes) -> Tuple[int, float]:
    _, p, t = decode_key(key)
    return t, p


class ValueCursor:
    """Forward cursor over one value's entries; an absent value never
    becomes valid."""

    def __init__(self, index, value) -> None:
        self._index = index if index.indexed.has_value(value) else None
        if self._index is not None:
            self._code = index.indexed.code(value)
            self._hi = prefix_upper_bound(encode_key((self._code,)))
        self._decode = decode_btc if index.kind == "btc" else decode_btp
        self._entries = iter(())
        self.time: Optional[int] = None
        self.prob = 0.0

    @property
    def valid(self) -> bool:
        return self.time is not None

    def seek(self, *rest) -> bool:
        """The value's first entry with key >= ``(code, *rest)``."""
        if self._index is None:
            return False
        self._entries = self._index.tree.range_items(
            encode_key((self._code, *rest)), self._hi)
        return self._load()

    def next(self) -> bool:
        return self.time is not None and self._load()

    def _load(self) -> bool:
        entry = next(self._entries, None)
        if entry is None:
            self.time = None
            return False
        self.time, self.prob = self._decode(*entry)
        return True


class PredicateChronoCursor:
    """The merged chronological cursor of one predicate's BT_C terms:
    each relevant timestep once, with the terms' summed probability."""

    def __init__(self, ctx, predicate) -> None:
        self._cursors = [ValueCursor(ctx.indexes["btc"][term.indexed_attr],
                                     term.value)
                         for term in ctx.terms_for("btc", predicate)]
        self.time: Optional[int] = None
        self.prob = 0.0
        self._started = False

    def seek(self, t: int) -> bool:
        for cursor in self._cursors:
            cursor.seek(t)
        self._started = True
        return self._aggregate()

    def next(self) -> bool:
        if not self._started:
            return self.seek(0)
        if self.time is None:
            return False
        current = self.time
        for cursor in self._cursors:
            while cursor.valid and cursor.time <= current:
                cursor.next()
        return self._aggregate()

    def advance_to(self, t: int) -> bool:
        """The first relevant timestep >= t: seek when more than 8 steps
        away, step otherwise."""
        if not self._started:
            return self.seek(t)
        if self.time is not None and self.time >= t:
            return True
        for cursor in self._cursors:
            while cursor.valid and cursor.time < t:
                if t - cursor.time > 8:
                    cursor.seek(t)
                else:
                    cursor.next()
        return self._aggregate()

    def _aggregate(self) -> bool:
        times = [c.time for c in self._cursors if c.valid]
        if not times:
            self.time = None
            self.prob = 0.0
            return False
        self.time = min(times)
        self.prob = sum(c.prob for c in self._cursors
                        if c.valid and c.time == self.time)
        return True


def relevant_events(ctx, predicates) -> List[Tuple[int, Set[int]]]:
    """Sorted ``(t, ids of the predicates matched at t)`` in the
    context's window."""
    events: Dict[int, Set[int]] = {}
    for idx, predicate in enumerate(predicates):
        cursor = PredicateChronoCursor(ctx, predicate)
        ok = cursor.seek(ctx.start)
        while ok and cursor.time < ctx.stop:
            events.setdefault(cursor.time, set()).add(idx)
            ok = cursor.next()
    return sorted(events.items())


def merge_join_anchors(ctx) -> List[int]:
    """Algorithm 2's anchors by the temporally-aware merge join of the
    BT_C-covered links' cursors, advanced in link order."""
    cursors = [(i, PredicateChronoCursor(ctx, predicate))
               for i, predicate in enumerate(ctx.query.predicates())
               if ctx.terms_for("btc", predicate) is not None]
    n, stop = len(ctx.query), ctx.stop
    anchors: List[int] = []
    s = ctx.start
    while s + n <= stop:
        aligned = True
        new_s = s
        for i, cursor in cursors:
            if not cursor.advance_to(s + i):
                return anchors
            new_s = max(new_s, cursor.time - i)
            if cursor.time != s + i:
                aligned = False
        if aligned:
            anchors.append(s)
            s += 1
        else:
            s = max(new_s, s + 1)
    return anchors


class PredicateProbCursor:
    """Sorted access over one predicate's BT_P terms, one entry of each
    term's cursor on the heap at a time."""

    def __init__(self, ctx, predicate) -> None:
        self._cursors = [ValueCursor(ctx.indexes["btp"][term.indexed_attr],
                                     term.value)
                         for term in ctx.terms_for("btp", predicate)]
        self._heap: List[Tuple[float, int, int]] = []
        self._started = False

    def _start(self) -> None:
        self._started = True
        for i, cursor in enumerate(self._cursors):
            if cursor.seek():
                heapq.heappush(self._heap, (-cursor.prob, cursor.time, i))

    def pop(self) -> Optional[Tuple[float, int]]:
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
        if not self._started:
            self._start()
        return -self._heap[0][0] if self._heap else None
