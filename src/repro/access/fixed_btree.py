"""Algorithm 2: the B+Tree access method for fixed-length queries (§3.1).

A fixed-length query of ``n`` links matches only length-``n`` intervals.
The links' BT_C entries are joined *temporally*: a timestep ``s`` at
which link ``i``'s entries hold ``s + i`` for every link anchors a
candidate interval. The join is an intersection of sorted arrays, one
window range per link shifted by its position, read rarest link first
and each narrowed to the candidates left by the links before it.
Overlapping candidate intervals are merged before being pushed through
Reg, so shared timesteps are processed once (the feature that lets this
method beat top-k on dense overlapping data, §4.2.2).

Links whose predicate has no covering index relax the intersection (they
accept any timestep), per §3.1's "one or more predicates are not
indexed" note — but at least one link must be indexed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

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
        an entry at ``s + i`` (the intersection of the links' BT_C
        entries, §3.1), with the interval ``[s, s+n-1]`` inside the
        query window.

        Each link's entries are one key range per term: the window's
        anchors shifted by the link's position. The links are read
        rarest first, by the indexes' entry counts, and each range after
        the first is narrowed to the first and last anchor still
        standing, so a common link is read only where the rarer ones
        left candidates."""
        n = len(ctx.query)
        links = sorted((ctx.entry_count(predicate), i, predicate)
                       for i, predicate in enumerate(ctx.query.predicates())
                       if ctx.terms_for("btc", predicate) is not None)
        first, last = ctx.start, ctx.stop - n
        if first > last:
            return []
        anchors = None
        for _, i, predicate in links:
            times = ctx.event_times(predicate, first + i, last + i + 1) - i
            anchors = times if anchors is None else \
                np.intersect1d(anchors, times, assume_unique=True)
            if not len(anchors):
                return []
            first, last = int(anchors[0]), int(anchors[-1])
        return anchors.tolist()


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
