"""The access-method planner: Figure 5(b)'s decision space.

Given a query and the indexes that exist, pick the Ex implementation:

- fixed-length + top-k/threshold + BT_P coverage  -> top-k B+Tree (Alg 3)
- fixed-length + any BT_C coverage               -> B+Tree (Alg 2)
- variable-length + full BT_C coverage + MC index -> MC index (Alg 4)
- variable-length + full BT_C coverage, approximate allowed
                                                  -> semi-independent (Alg 5)
- otherwise                                       -> naive scan (Alg 1)

The paper's guidance is encoded here: the MC method "is applicable only
when all stream attributes are indexed, and when the MC index is
available; if either condition is not met ... the B+Tree can be applied,
but only to fixed-length queries" (§4.3.1), and a naive scan is the only
remaining option (§3.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..access import (
    AccessMethod,
    FixedBTree,
    FixedTopK,
    NaiveScan,
    QueryContext,
    SemiIndependent,
    VariableMC,
)
from ..errors import PlanningError


@dataclass
class PlanDecision:
    """The chosen access method and the reason it was chosen."""

    method: AccessMethod
    reason: str

    @property
    def name(self) -> str:
        return self.method.name


def plan(
    ctx: QueryContext,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
    approximate: bool = False,
    use_conditioned: bool = False,
    registry=None,
    tracer=None,
) -> PlanDecision:
    """Choose an access method for the context (Fig 5b).

    A naive-scan fallback is legal but expensive, so it is never
    silent: every fallback decision bumps the
    ``planner.fallbacks{reason=...}`` counter on ``registry`` and emits
    a ``planner.fallback`` warning span on ``tracer`` (the engine
    passes its environment's registry and tracer).
    """
    query = ctx.query
    wants_topk = k is not None or threshold is not None

    def fallback(method: AccessMethod, reason_label: str,
                 reason_text: str) -> PlanDecision:
        if registry is not None:
            registry.counter("planner.fallbacks",
                             reason=reason_label).inc()
        if tracer is not None:
            with tracer.span("planner.fallback", level="warning",
                             reason=reason_label, query=query.name,
                             method=method.name):
                pass
        return PlanDecision(method, reason_text)

    if query.is_fixed_length:
        predicates = query.predicates()
        btp_full = all(ctx.terms_for("btp", p) is not None for p in predicates)
        btc_any = any(ctx.terms_for("btc", p) is not None for p in predicates)
        if wants_topk and btp_full:
            return PlanDecision(
                FixedTopK(k=k if k is not None else 1, threshold=threshold),
                "fixed-length top-k query with full BT_P coverage",
            )
        if btc_any:
            reason = "fixed-length query with BT_C coverage"
            if wants_topk:
                reason += " (no BT_P: B+Tree then sort)"
            return PlanDecision(FixedBTree(), reason)
        return fallback(NaiveScan(), "no_btc_coverage",
                        "no usable index: full scan")

    # Variable-length.
    covered = True
    for predicate in query.indexable_predicates():
        if ctx.terms_for("btc", predicate) is None:
            covered = False
            break
    if covered and ctx.mc is not None:
        conditioned = use_conditioned and ctx.conditioned_loop() is not None
        return PlanDecision(
            VariableMC(use_conditioned=conditioned),
            "variable-length query with full BT_C coverage and MC index",
        )
    if covered and approximate:
        return fallback(
            SemiIndependent(), "no_mc_index",
            "variable-length query without MC index: approximate "
            "semi-independent method",
        )
    if covered:
        return fallback(
            NaiveScan(), "no_mc_index",
            "variable-length query without MC index: full scan",
        )
    return fallback(
        NaiveScan(), "no_btc_coverage",
        "variable-length query without full index coverage: full scan "
        "(§3.4.1)",
    )


def method_by_name(
    name: str,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
    use_conditioned: bool = False,
) -> AccessMethod:
    """Explicit method selection (benchmarks pin methods by name)."""
    if name == "naive":
        return NaiveScan()
    if name == "btree":
        return FixedBTree()
    if name == "topk":
        return FixedTopK(k=k if k is not None else 1, threshold=threshold)
    if name == "mc":
        return VariableMC(use_conditioned=use_conditioned)
    if name == "semi":
        return SemiIndependent()
    raise PlanningError(
        f"unknown access method {name!r}; expected one of "
        "naive/btree/topk/mc/semi"
    )
