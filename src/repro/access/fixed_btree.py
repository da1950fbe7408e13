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

    def check(self, ctx: QueryContext) -> None:
        query = ctx.query
        if not query.is_fixed_length:
            raise QueryError(
                "the B+Tree method handles fixed-length queries only; "
                f"{query.name!r} has Kleene loops"
            )
        if not any(ctx.terms_for("btc", p) is not None
                   for p in query.predicates()):
            raise PlanningError(
                "no link of the query is covered by a BT_C index; "
                "use the naive scan"
            )

    def _execute(self, ctx: QueryContext, run: RegRun):
        n = len(ctx.query)
        anchors = ctx.probe("anchors", lambda: self.anchors(ctx))
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
            for t, p in run.walk(range(start, end + 1)):
                emitted[t] = max(p, emitted.get(t, 0.0))
            run.stats.intervals_processed += 1
        signal: List[Tuple[int, float]] = sorted(emitted.items())
        return signal, len(anchors)

    # ------------------------------------------------------------------
    @staticmethod
    def anchors(ctx: QueryContext) -> List[int]:
        """Anchor timesteps ``s`` such that every indexed link ``i`` has
        an entry at ``s + i`` (the BT_C cursors' intersection, §3.1),
        with the interval ``[s, s+n-1]`` inside the query window."""
        cursors = [(i, ctx.chrono_cursor(predicate))
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
