"""Algorithm 4: the MC-index access method for variable-length queries (§3.3).

Each (indexable) query predicate's BT_C entries in the query window are
one key range per index term, read a leaf at a time as arrays; their
union is the sorted array of *relevant* timesteps — the only inputs on
which the query NFA can change state. The method walks them with
:meth:`~repro.access.base.RegRun.walk`, like Algorithm 5; it differs
only in the gap rule. Adjacent relevant timesteps read their CPT, and a
gap is crossed by :meth:`~repro.access.base.RegRun.span`: one update by
the MC index's pieces, applied in order, so an arbitrarily long stretch
of irrelevant data costs ``O(log(gap))`` products instead of a scan.

Per §3.4.1, this method requires index coverage of *all* attributes
involved in the query's predicates, and every link predicate must be
indexable (otherwise relevant timesteps could be missed and correctness
lost): :meth:`~repro.access.base.QueryContext.relevant_predicates`
enforces both, for this method, Algorithm 5 and the planner alike.

Positive (non-negated) Kleene loops are handled two ways:

- exact mode (default): timesteps matching the loop predicate are
  relevant and processed step by step, with plain span updates across
  truly irrelevant gaps — exact output at every relevant timestep;
- conditioned mode (``use_conditioned=True``, §3.3.2): maximal runs of
  timesteps relevant *only* to the loop predicate are crossed in one
  :meth:`~repro.access.base.RegRun.loop_span` update using the
  predicate-conditioned MC index; the query signal is then emitted at
  run boundaries only (the summarized interior is not enumerated). It
  needs :meth:`~repro.access.base.QueryContext.conditioned_loop`: exactly
  one positive loop, with its conditioned index open. The planner asks
  the same question before it picks this mode.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import PlanningError
from ..query.predicates import Predicate
from .base import AccessMethod, QueryContext, RegRun


def collect_relevant_events(ctx: QueryContext,
                            predicates: Sequence[Predicate]
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """The relevant timesteps within the context's window, as
    ``(times, matched)``: the sorted timesteps at which some predicate's
    BT_C terms have an entry, and a ``(len(predicates), len(times))``
    boolean mask whose row ``i`` marks the timesteps ``predicates[i]``
    matched.

    Raises :class:`PlanningError` unless every predicate is covered by a
    BT_C index (the §3.4.1 requirement).
    """
    found = [ctx.event_times(predicate, ctx.start, ctx.stop)
             for predicate in predicates]  # raises if uncovered
    times = np.unique(np.concatenate(found)) if found else \
        np.empty(0, np.int64)
    matched = np.zeros((len(found), len(times)), dtype=bool)
    for row, hits in zip(matched, found):
        row[np.searchsorted(times, hits)] = True
    return times, matched


def relevant_events(ctx: QueryContext) -> Tuple[np.ndarray, np.ndarray]:
    """The query's relevant events (:func:`collect_relevant_events` of
    its :meth:`~repro.access.base.QueryContext.relevant_predicates`),
    read once per context."""
    return ctx.probe("events", lambda: collect_relevant_events(
        ctx, ctx.relevant_predicates()))


class VariableMC(AccessMethod):
    """The MC-index access method (Algorithm 4)."""

    name = "mc"

    def __init__(self, use_conditioned: bool = False) -> None:
        self.use_conditioned = use_conditioned

    def check(self, ctx: QueryContext) -> None:
        ctx.relevant_predicates()
        if ctx.mc is None:
            raise PlanningError("the MC-index method needs the MC index")
        if self.use_conditioned and ctx.conditioned_loop() is None and \
                ctx.query.has_positive_loops:
            raise PlanningError(
                "conditioned skipping needs exactly one positive Kleene "
                "loop with its conditioned MC index built; run the MC "
                "method in exact mode instead"
            )

    def _execute(self, ctx: QueryContext, run: RegRun):
        times, matched = relevant_events(ctx)
        loop = ctx.conditioned_loop() if self.use_conditioned else None
        if loop is None:
            return list(run.walk(times.tolist(), run.span)), 0

        # Defer pure loop-interior events: relevant only to the loop
        # predicate, after the first event and adjacent to the next one.
        # A deferred run therefore ends right before a walked event,
        # whose gap jump crosses the whole run in one loop span.
        sig = ctx.query.links[loop[0]].loop.signature()
        loop_id = next(i for i, p in enumerate(ctx.relevant_predicates())
                       if p.signature() == sig)
        only_loop = matched[loop_id] & (matched.sum(axis=0) == 1)
        interior = np.zeros(len(times), dtype=bool)
        interior[1:-1] = only_loop[1:-1] & (times[2:] == times[1:-1] + 1)
        deferred = set(times[interior].tolist())

        def jump(prev: int, t: int) -> float:
            if t - 1 in deferred:
                return run.loop_span(loop, prev, t)
            return run.span(prev, t)

        return list(run.walk(times[~interior].tolist(), jump)), 0
