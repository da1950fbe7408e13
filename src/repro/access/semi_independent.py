"""Algorithm 5: the approximate semi-independent access method (§3.4.3).

Like the MC-index method, the query predicates' BT_C ranges enumerate the
relevant timesteps. Correlations between *adjacent* relevant timesteps
are read directly from the raw stream (one CPT access — the same cost as
reading a marginal, hence "semi"-independent); correlations across
longer gaps are replaced by the independence assumption, which needs
only the marginal at the new timestep.

No accuracy guarantees: ignoring correlations can inflate probabilities
substantially (§2.1's walking-through-walls example), and on some
streams the method misidentifies the maximum-probability timestep
(§4.3.2). Its appeal is speed: no MC index to store or query.

Documented approximation bound (what *is* guaranteed, and what
``tests/access/test_differential.py`` checks):

1. the emitted support is exactly the relevant-event set — the same
   timesteps the exact MC method emits;
2. every emitted value is a valid probability in ``[0, 1]`` (up to
   float round-off);
3. the signal is *exact* on any prefix of the event list in which
   consecutive relevant timesteps are adjacent — the independence
   approximation is applied only when crossing a gap of two or more
   timesteps, so until the first such gap the method reduces to the
   naive evaluation restricted to relevant timesteps.
"""

from __future__ import annotations

from .base import AccessMethod, QueryContext, RegRun
from .variable_mc import relevant_events


class SemiIndependent(AccessMethod):
    """The semi-independent access method (Algorithm 5)."""

    name = "semi"

    def check(self, ctx: QueryContext) -> None:
        ctx.relevant_predicates()

    def _execute(self, ctx: QueryContext, run: RegRun):
        # Adjacent relevant timesteps read their exact CPT (line 9);
        # distant ones jump under the independence approximation
        # (line 11).
        times, _ = relevant_events(ctx)
        return list(run.walk(times.tolist(), run.independent)), 0
