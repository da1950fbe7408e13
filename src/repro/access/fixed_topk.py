"""Algorithm 3: the top-k B+Tree access method (§3.2).

Adapts the Threshold Algorithm (Fagin et al.) to Markovian streams using
the key upper-bound observation: within a length-``n`` interval, the
marginal probability of the ``i``-th link predicate at the ``i``-th
timestep bounds the interval's match probability from above (an event
cannot be more likely than any of its components).

Sorted access pops ``(prob, timestep)`` entries from the BT_P cursors of
all link predicates (:class:`~repro.indexes.PredicateProbCursor`, which
reads each term's entries a leaf at a time) in globally decreasing
probability. Each pop anchors a candidate interval; the algorithm
terminates when the best remaining sorted-access probability cannot
beat the current ``k``-th best match (Alg 3, lines 5-6). Candidates
are pruned when any link's marginal at its aligned position is zero
(line 9); the optional *enhanced* bound prunes on the minimum of the
link marginals (an ablation knob, not in the paper's pseudocode).

Also supports *threshold* queries (return every match with probability
``>= tau``) by fixing the termination bound at ``tau``; a bound equal to
``tau`` may still be met exactly, so only a bound below it stops or
prunes.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from ..errors import PlanningError, QueryError
from .base import AccessMethod, QueryContext, RegRun


class FixedTopK(AccessMethod):
    """The top-k B+Tree access method (Algorithm 3).

    Parameters
    ----------
    k:
        Number of matches to return (ignored when ``threshold`` given).
    threshold:
        Alternative mode: return all matches with probability >= this.
    enhanced_pruning:
        Also prune candidates whose *minimum* link-marginal bound cannot
        beat the current k-th best — sound, since a match can be no more
        likely than any of its components, and stronger than the paper's
        line-9 nonzero check (off by default for fidelity; the
        ``bench_ablation_topk_bound`` benchmark measures its effect).
    """

    name = "topk"

    def __init__(
        self,
        k: int = 1,
        threshold: Optional[float] = None,
        enhanced_pruning: bool = False,
    ) -> None:
        if threshold is None and k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if threshold is not None and not 0.0 < threshold <= 1.0:
            raise QueryError(f"threshold out of (0, 1]: {threshold}")
        self.k = k
        self.threshold = threshold
        self.enhanced_pruning = enhanced_pruning

    # ------------------------------------------------------------------
    def check(self, ctx: QueryContext) -> None:
        query = ctx.query
        if not query.is_fixed_length:
            raise QueryError(
                "the top-k B+Tree method handles fixed-length queries "
                f"only; {query.name!r} has Kleene loops"
            )
        for predicate in query.predicates():  # every link needs BT_P
            if ctx.terms_for("btp", predicate) is None:
                raise PlanningError(
                    f"no BT_P index covers predicate "
                    f"{predicate.signature()}")

    def _execute(self, ctx: QueryContext, run: RegRun):
        n = len(ctx.query)
        predicates = ctx.query.predicates()
        phi_sets = [p.matching_states(ctx.space) for p in predicates]
        cursors = [(i, ctx.prob_cursor(p)) for i, p in enumerate(predicates)]
        bound_multiplier = max(c.bound_multiplier for _, c in cursors)

        # best: min-heap of (p, t) holding the current top k.
        best: List[Tuple[float, int]] = []
        seen: Set[int] = set()
        stats = run.stats

        def beaten(bound: float) -> bool:
            """No match bounded by ``bound`` can make the answer: it is
            below tau, or no better than the current k-th best."""
            if self.threshold is not None:
                return bound < self.threshold
            return bound <= (best[0][0] if len(best) == self.k else 0.0)

        while True:
            # Globally highest remaining sorted-access entry.
            top_i = None
            top_prob = -1.0
            for i, cursor in cursors:
                p = cursor.peek_prob()
                if p is not None and p > top_prob:
                    top_prob = p
                    top_i = i
            if top_i is None:
                break  # all cursors exhausted
            if beaten(top_prob * bound_multiplier):
                break  # TA termination (Alg 3, lines 5-6)
            i, cursor = next(c for c in cursors if c[0] == top_i)
            prob, t = cursor.pop()
            start = t - i
            if start < ctx.start or start + n > ctx.stop:
                continue
            if start in seen:
                continue
            seen.add(start)
            stats.candidates_examined += 1

            # Line 9: every link's marginal at its aligned position must
            # be nonzero (optionally: their minimum must beat the bar).
            bounds: List[float] = []
            pruned = False
            for j in range(n):
                mass = run.marginal(start + j).mass_on(phi_sets[j])
                if mass <= 0.0:
                    pruned = True
                    break
                bounds.append(mass)
            if not pruned and self.enhanced_pruning:
                if beaten(min(bounds)):
                    pruned = True
            if pruned:
                stats.candidates_pruned += 1
                continue

            # Lines 10-12: evaluate the interval through Reg.
            match_time, p = list(run.walk(range(start, start + n)))[-1]
            if self.threshold is not None:
                if p >= self.threshold:
                    heapq.heappush(best, (p, match_time))
            else:
                if len(best) < self.k:
                    heapq.heappush(best, (p, match_time))
                elif p > best[0][0]:
                    heapq.heapreplace(best, (p, match_time))
            stats.intervals_processed += 1

        signal = sorted(((t, p) for p, t in best))
        return signal, len(best)
