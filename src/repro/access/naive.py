"""Algorithm 1: the naïve full-stream-scan access method.

The baseline every other method is measured against (§3): initialize Reg
with the first marginal, then push every CPT of the stream through it.
Reads one marginal and ``M - 1`` CPTs regardless of the query.
"""

from __future__ import annotations

from .base import AccessMethod, QueryContext, RegRun


class NaiveScan(AccessMethod):
    """Full sequential scan of the archived stream (Algorithm 1)."""

    name = "naive"

    def _execute(self, ctx: QueryContext, run: RegRun):
        return list(run.interval(ctx.start, ctx.stop - 1)), 0
