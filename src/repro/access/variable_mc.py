"""Algorithm 4: the MC-index access method for variable-length queries (§3.3).

One BT_C cursor per (indexable) query predicate is advanced in parallel;
their union enumerates the *relevant* timesteps — the only inputs on
which the query NFA can change state. Between consecutive relevant
timesteps the method asks the MC index for the composed CPT spanning the
gap and performs a single span update, so an arbitrarily long stretch of
irrelevant data costs ``O(log(gap))`` CPT multiplications instead of a
scan.

Per §3.4.1, this method requires index coverage of *all* attributes
involved in the query's predicates (otherwise relevant timesteps could
be missed and correctness lost) — the planner falls back to a naive scan
when coverage is missing.

Positive (non-negated) Kleene loops are handled two ways:

- exact mode (default): timesteps matching the loop predicate are
  relevant and processed step by step, with plain span updates across
  truly irrelevant gaps — exact output at every relevant timestep;
- conditioned mode (``use_conditioned=True``, §3.3.2): maximal runs of
  timesteps relevant *only* to the loop predicate are crossed in one
  update using the predicate-conditioned MC index; the query signal is
  then emitted at run boundaries only (the summarized interior is not
  enumerated).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

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


class VariableMC(AccessMethod):
    """The MC-index access method (Algorithm 4)."""

    name = "mc"

    def __init__(self, use_conditioned: bool = False) -> None:
        self.use_conditioned = use_conditioned

    def _execute(self, ctx: QueryContext, run: RegRun):
        query = ctx.query
        reader = ctx.reader
        mc_stats = run.stats.mc_lookups
        if ctx.mc is None:
            raise PlanningError("the MC-index method needs the MC index")
        predicates = query.indexable_predicates()
        events = collect_relevant_events(ctx, predicates)
        if not events:
            return [], 0

        # Positive-loop bookkeeping for conditioned mode.
        loop_state: Optional[int] = None  # 0-based link index / NFA state q
        loop_pred_id: Optional[int] = None
        conditioned = None
        if self.use_conditioned and query.has_positive_loops:
            loop_links = [
                q for q, link in enumerate(query.links) if link.has_positive_loop
            ]
            if len(loop_links) > 1:
                raise PlanningError(
                    "conditioned skipping supports a single positive Kleene "
                    "loop; run the MC method in exact mode instead"
                )
            loop_state = loop_links[0]
            loop_sig = query.links[loop_state].loop.signature()
            conditioned = ctx.mc_conditioned.get(loop_sig)
            if conditioned is None:
                raise PlanningError(
                    f"conditioned MC index for {loop_sig} is not built"
                )
            for idx, predicate in enumerate(predicates):
                if predicate.signature() == loop_sig:
                    loop_pred_id = idx
                    break

        signal: List[Tuple[int, float]] = []
        t_prev: Optional[int] = None
        skipped_loop_run = False

        for pos, (t, matched) in enumerate(events):
            if self.use_conditioned and loop_pred_id is not None:
                # Defer pure loop-interior events: relevant only to the
                # loop predicate, adjacent on both sides to the run.
                if (
                    matched == {loop_pred_id}
                    and pos + 1 < len(events)
                    and events[pos + 1][0] == t + 1
                    and t_prev is not None
                ):
                    skipped_loop_run = True
                    continue

            if t_prev is None:
                p = run.start(t)
            elif t == t_prev + 1 and not skipped_loop_run:
                p = run.step(t)
            else:
                # Gap jump: the span CPT comes from the MC index, which
                # counts its own reads in mc_stats.
                gap = t - t_prev
                plain = ctx.mc.compute_cpt(
                    t_prev, t, reader,
                    min_level=ctx.mc_min_level, stats=mc_stats,
                )
                if skipped_loop_run:
                    cond = conditioned.compute_conditioned_cpt(
                        t_prev, t, reader,
                        min_level=ctx.mc_min_level, stats=mc_stats,
                    )
                    p = run.reg.update_loop_span(loop_state, plain, cond,
                                                 span=gap)
                else:
                    p = run.reg.update_span(plain, span=gap)
            signal.append((t, p))
            t_prev = t
            skipped_loop_run = False
        return signal, 0
