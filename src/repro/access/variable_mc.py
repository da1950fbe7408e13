"""Algorithm 4: the MC-index access method for variable-length queries (§3.3).

One BT_C cursor per (indexable) query predicate is advanced in parallel;
their union enumerates the *relevant* timesteps — the only inputs on
which the query NFA can change state. The method walks them with
:meth:`~repro.access.base.RegRun.walk`, like Algorithm 5; it differs
only in the gap rule. Adjacent relevant timesteps read their CPT, and a
gap is crossed by :meth:`~repro.access.base.RegRun.span`: one update by
the MC index's composed CPT, so an arbitrarily long stretch of
irrelevant data costs ``O(log(gap))`` CPT multiplications instead of a
scan.

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

from typing import Dict, Set

from ..errors import PlanningError
from .base import AccessMethod, QueryContext, RegRun


def collect_relevant_events(ctx: QueryContext, predicates):
    """Merged relevant timesteps within the context's window: a sorted
    list of ``(t, matched_pred_ids)``.

    Raises :class:`PlanningError` unless every predicate is covered by a
    BT_C index (the §3.4.1 requirement).
    """
    events: Dict[int, Set[int]] = {}
    for idx, predicate in enumerate(predicates):
        cursor = ctx.chrono_cursor(predicate)  # raises if uncovered
        ok = cursor.seek(ctx.start)
        while ok and cursor.time < ctx.stop:
            events.setdefault(cursor.time, set()).add(idx)
            ok = cursor.next()
    return sorted(events.items())


def relevant_events(ctx: QueryContext):
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
        events = relevant_events(ctx)
        loop = ctx.conditioned_loop() if self.use_conditioned else None
        if loop is None:
            return list(run.walk((t for t, _ in events), run.span)), 0

        # Defer pure loop-interior events: relevant only to the loop
        # predicate, after the first event and adjacent to the next one.
        # A deferred run therefore ends right before a walked event,
        # whose gap jump crosses the whole run in one loop span.
        predicates = ctx.relevant_predicates()
        sig = ctx.query.links[loop[0]].loop.signature()
        loop_id = next((i for i, p in enumerate(predicates)
                        if p.signature() == sig), None)
        deferred = {t for pos, (t, matched) in enumerate(events[1:-1], 1)
                    if matched == {loop_id} and events[pos + 1][0] == t + 1}

        def jump(prev: int, t: int) -> float:
            if t - 1 in deferred:
                return run.loop_span(loop, prev, t)
            return run.span(prev, t)

        times = (t for t, _ in events if t not in deferred)
        return list(run.walk(times, jump)), 0
