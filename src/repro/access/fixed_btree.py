"""Algorithm 2: the B+Tree access method for fixed-length queries (§3.1).

A fixed-length query of ``n`` links matches only length-``n`` intervals.
One BT_C cursor per link predicate is advanced in a *temporally-aware
merge join*: the cursors *intersect* when they reference ``n``
consecutive timesteps in link order — each intersection anchors a
candidate interval. Overlapping candidate intervals are merged before
being pushed through Reg, so shared timesteps are processed once (the
feature that lets this method beat top-k on dense overlapping data,
§4.2.2).

Links whose predicate has no covering index relax the intersection (they
accept any timestep), per §3.1's "one or more predicates are not
indexed" note — but at least one link must be indexed.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import PlanningError, QueryError
from .base import AccessMethod, QueryContext, RegRun


class FixedBTree(AccessMethod):
    """The B+Tree access method (Algorithm 2).

    ``merge_overlapping`` (default on, per §3.1) combines overlapping
    candidate intervals before running Reg; disabling it processes every
    candidate interval independently — the ablation knob for
    ``bench_ablation_merge``.
    """

    name = "btree"

    def __init__(self, merge_overlapping: bool = True) -> None:
        self.merge_overlapping = merge_overlapping

    def _execute(self, ctx: QueryContext, run: RegRun):
        query = ctx.query
        if not query.is_fixed_length:
            raise QueryError(
                "the B+Tree method handles fixed-length queries only; "
                f"{query.name!r} has Kleene loops"
            )
        n = len(query)

        cursors = []  # (link offset, cursor)
        for i, predicate in enumerate(query.predicates()):
            terms = ctx.btc_terms_for(predicate)
            if terms is not None:
                cursors.append((i, ctx.chrono_cursor(predicate)))
        if not cursors:
            raise PlanningError(
                "no link of the query is covered by a BT_C index; "
                "use the naive scan"
            )

        anchors = self._intersect(cursors, n, ctx.start, ctx.stop)
        run.stats.candidates_examined = len(anchors)
        if self.merge_overlapping:
            intervals = merge_intervals(anchors, n)
        else:
            intervals = [(s, s + n - 1) for s in anchors]

        emitted: dict = {}
        for start, end in intervals:
            # In unmerged mode overlapping intervals revisit timesteps; a
            # timestep's true probability is the best (complete-alignment)
            # value, so keep the max.
            for t, p in run.interval(start, end):
                emitted[t] = max(p, emitted.get(t, 0.0))
            run.stats.intervals_processed += 1
        signal: List[Tuple[int, float]] = sorted(emitted.items())
        return signal, len(anchors)

    # ------------------------------------------------------------------
    @staticmethod
    def _intersect(cursors, n: int, start: int, stop: int) -> List[int]:
        """Anchor timesteps ``s`` such that every indexed link ``i`` has
        an entry at ``s + i`` (the cursors' intersection, §3.1), with the
        interval ``[s, s+n-1]`` inside the ``[start, stop)`` window."""
        anchors: List[int] = []
        s = start
        while s + n <= stop:
            aligned = True
            new_s = s
            for i, cursor in cursors:
                if not cursor.advance_to(s + i):
                    return anchors  # some cursor exhausted
                candidate = cursor.time - i
                if candidate > new_s:
                    new_s = candidate
                if cursor.time != s + i:
                    aligned = False
            if aligned:
                anchors.append(s)
                s += 1
            else:
                s = max(new_s, s + 1)
        return anchors


def merge_intervals(anchors: List[int], n: int) -> List[Tuple[int, int]]:
    """Merge candidate intervals ``[s, s+n-1]`` that overlap or abut, so
    each stream timestep is processed at most once (§3.1)."""
    merged: List[Tuple[int, int]] = []
    for s in anchors:
        start, end = s, s + n - 1
        if merged and start <= merged[-1][1] + 1:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged
