"""The access-method planner: the legal method with the least predicted
cost.

Fig 5(b) of the paper lists the access methods that can answer each
query class, and §4.2–4.3 show the index methods falling to scan cost
as data density grows. So the planner does not follow a fixed rule: it
lists every *candidate*, predicts the logical page reads and the
timesteps walked of each legal one, and runs the one whose sum is
least: a page read and a timestep pushed through Reg cost one unit
each. This is a fixed cost model. Reads alone would no longer do: a run
of timesteps is read a leaf at a time, so a scan reads a few pages for
thousands of steps, and would undercut index methods that walk a
hundredth of them. Ties go to the candidate that walks fewer
timesteps.

Candidates
----------
- the naive scan (Alg 1), always legal;
- fixed-length queries: the B+Tree method (Alg 2) and, for a top-k or
  threshold query, the top-k method (Alg 3);
- queries with Kleene loops: the MC method (Alg 4) in exact mode, in
  conditioned mode (§3.3.2) when ``use_conditioned`` asks for it and the
  query has a positive loop, and the semi-independent method (Alg 5)
  when ``approximate`` allows it.

For a top-k or threshold query, every candidate but Alg 3 computes the
full signal and ``Caldera.query``'s Sort step keeps the best ("naive +
Sort", "btree + Sort", ...).

A candidate is legal when its method's
:meth:`~repro.access.AccessMethod.check` passes: the one rule that
``run`` applies too, so a pinned ``method=`` refuses the same queries.
Alg 2 needs a BT_C index on some link; Alg 3 needs BT_P on every link;
Algs 4 and 5 need every link predicate indexable (a negated *loop* is
fine) and BT_C-covered, and Alg 4 the MC index.

Predicted reads
---------------
The cost pins' read formulas: a point read costs its tree's height (a
packed reader's cached frame costs nothing), and a run of adjacent
timesteps costs one descent and then one read per further leaf — the
height plus the leaf fences it crosses, which the catalog records per
stream tree (:meth:`~repro.streams.StreamReader.fences`). An MC piece
is one MC-tree lookup. The naive scan's prediction, one marginal and
one run, is exact. The index methods' predictions start from the
per-value BT_C statistics the catalog keeps
(:class:`~repro.indexes.ValueStats`: entries, runs and frames of each
value, recorded at archive time), and price a walk as ``runs × height
+ steps / timesteps per leaf``:

- Alg 2: every entry of its rarest link may anchor a match; the
  intervals, each a marginal read and a run, merge into anywhere
  between one run and one per anchor;
- Alg 3: the worst case, sorted access with no early stop;
- Algs 4 and 5: the relevant events are taken at their most (values of
  one attribute rarely share a timestep), in anywhere between one run
  and as many as the statistics allow. That range is exact on dense
  data (the events fill the stream) and wide on sparse data.

When such a range straddles the best prediction, the statistics cannot
separate the candidates, so the planner *probes*: it reads Alg 2's
anchors or the query's relevant events from the BT_C indexes once
(:meth:`~repro.access.QueryContext.probe`) and replays each such
candidate on a :class:`~repro.access.base.DryRun`, which counts the
reads and the timesteps the run would make without making them. It
probes, too, when the best candidate is one of them, since that method
reads the same entries anyway. The chosen method takes the probed
entries from the context, so nothing is read twice; the probe's reads
are part of every candidate's prediction.

Choosing the naive scan on cost is not a fallback. A fallback — counted
in ``planner.fallbacks{reason=...}`` with a ``planner.fallback`` warning
span — is a query that no exact index method can serve for want of an
index: ``no_mc_index`` when only the MC index is missing, else
``no_btc_coverage``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..access import (
    AccessMethod,
    FixedBTree,
    FixedTopK,
    NaiveScan,
    QueryContext,
    SemiIndependent,
    VariableMC,
)
from ..errors import PlanningError, QueryError


@dataclass
class Candidate:
    """One row of the planner's table."""

    label: str
    method: AccessMethod
    #: Why the method cannot answer the query (None when legal).
    illegal: Optional[str] = None
    #: Predicted logical page reads: a range, a point when low == high.
    low: int = 0
    high: int = 0
    #: Predicted timesteps walked.
    steps: int = 0
    #: The reads come from a probe and a dry run, not the statistics.
    probed: bool = False
    #: Exact methods of the query class (a fallback when none is legal).
    exact_index: bool = False
    #: Predicted exactly by a probe and a dry run when the statistics
    #: cannot separate it: Alg 2 (its anchors), Algs 4 and 5 (the
    #: relevant events).
    probeable: bool = False

    @property
    def cost(self) -> int:
        """What the planner minimises: predicted reads (the high end)
        plus predicted timesteps walked."""
        return self.high + self.steps

    def rank(self) -> Tuple[int, int]:
        return self.cost, self.steps

    def row(self) -> str:
        if self.illegal is not None:
            return f"{self.label:<22} illegal: {self.illegal}"
        reads = f"{self.high:,}" if self.low == self.high else \
            f"{self.low:,}..{self.high:,}"
        source = "probed" if self.probed else "statistics"
        return (f"{self.label:<22} {reads:>16} reads "
                f"{self.steps:>8,} steps ({source})")


@dataclass
class PlanDecision:
    """The chosen access method, why, and the candidate table."""

    method: AccessMethod
    reason: str
    candidates: List[Candidate] = field(default_factory=list)
    #: Logical reads the planner's probe made (the chosen method's too).
    probe_reads: int = 0

    @property
    def name(self) -> str:
        return self.method.name

    @property
    def predicted(self) -> int:
        """The chosen candidate's predicted reads (its high end)."""
        return next(c.high for c in self.candidates
                    if c.method is self.method)

    def table(self) -> str:
        """The candidate table, chosen candidate marked ``*``."""
        return "\n".join(("* " if c.method is self.method else "  ") + c.row()
                         for c in self.candidates)


def plan(
    ctx: QueryContext,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
    approximate: bool = False,
    use_conditioned: bool = False,
    registry=None,
    tracer=None,
) -> PlanDecision:
    """Choose the legal access method with the least predicted cost:
    reads plus timesteps walked.

    A fallback bumps ``planner.fallbacks{reason=...}`` on ``registry``
    and emits a ``planner.fallback`` warning span on ``tracer`` (the
    engine passes its environment's registry and tracer).
    """
    candidates = _candidates(ctx, k, threshold, approximate, use_conditioned)
    model = _Model(ctx)
    for c in candidates:
        try:
            c.method.check(ctx)
        except (PlanningError, QueryError) as exc:
            c.illegal = str(exc)
            continue
        c.low, c.high, c.steps = model.predict(c)
    legal = [c for c in candidates if c.illegal is None]
    best = min(legal, key=Candidate.rank)
    # Probe when the statistics cannot separate the candidates, or when
    # the winner reads the probed entries anyway (its prediction becomes
    # exact).
    if any(c.probeable and c.low + c.steps < best.cost for c in legal):
        best = _probe(ctx, legal)

    reason = (f"least predicted cost: {best.high:,} page reads + "
              f"{best.steps:,} timesteps walked")
    if best.probed:
        reason += ", after probing the BT_C indexes"
    if not any(c.exact_index and c.illegal is None for c in candidates):
        label = "no_btc_coverage"
        if not ctx.query.is_fixed_length:
            try:
                ctx.relevant_predicates()
                label = "no_mc_index"
            except PlanningError:
                pass
        reason += f"; fallback: {label}"
        _count_fallback(ctx, best.method, label, registry, tracer)
    return PlanDecision(best.method, reason, candidates, ctx.probe_reads)


def _candidates(ctx: QueryContext, k, threshold, approximate: bool,
                use_conditioned: bool) -> List[Candidate]:
    sort = "" if k is None and threshold is None else " + Sort"
    out = [Candidate("naive" + sort, NaiveScan())]
    if ctx.query.is_fixed_length:
        out.append(Candidate("btree" + sort, FixedBTree(), exact_index=True,
                             probeable=True))
        if sort:
            out.append(Candidate(
                "topk", FixedTopK(k=k if k is not None else 1,
                                  threshold=threshold), exact_index=True))
        return out
    out.append(Candidate("mc" + sort, VariableMC(), exact_index=True,
                         probeable=True))
    if use_conditioned and ctx.query.has_positive_loops:
        out.append(Candidate("mc conditioned" + sort,
                             VariableMC(use_conditioned=True),
                             exact_index=True, probeable=True))
    if approximate:
        out.append(Candidate("semi" + sort, SemiIndependent(),
                             probeable=True))
    return out


def _probe(ctx: QueryContext, legal: List[Candidate]) -> Candidate:
    """Make every probeable prediction exact by a dry run (the first to
    need them reads the anchors or the relevant events), and choose
    again."""
    for c in legal:
        if c.probeable:
            run = c.method.dry_run(ctx)
            c.low = c.high = run.reads
            c.steps = run.steps
            c.probed = True
    for c in legal:  # the probe's reads are spent whichever runs
        c.low += ctx.probe_reads
        c.high += ctx.probe_reads
    return min(legal, key=Candidate.rank)


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


def _count_fallback(ctx: QueryContext, method: AccessMethod, label: str,
                    registry, tracer) -> None:
    if registry is not None:
        registry.counter("planner.fallbacks", reason=label).inc()
    if tracer is not None:
        with tracer.span("planner.fallback", level="warning", reason=label,
                         query=ctx.query.name, method=method.name):
            pass


@dataclass
class _Counts:
    """A predicate's BT_C or BT_P entries in the query window."""

    entries: float
    runs: float
    frames: float
    #: Predicted reads of their key ranges: a descent per term, then
    #: one read per leaf.
    cursor: float


class _Model:
    """Read predictions from the statistics, for one query context."""

    def __init__(self, ctx: QueryContext) -> None:
        self.ctx = ctx
        dry = ctx.reader.dry()
        self.pack = dry.pack
        self.marginal_cost = dry.marginal_cost
        self.cpt_cost = dry.cpt_cost
        #: Timesteps a run read takes per leaf of the CPT (or data) tree.
        self.per_leaf = dry.length / (len(dry.cpt_fences) + 1)
        self.width = ctx.stop - ctx.start
        self.scale = self.width / ctx.reader.length
        self.frames = (ctx.stop - 1) // self.pack - ctx.start // self.pack + 1

    def predict(self, c: Candidate) -> Tuple[int, int, int]:
        """``(low, high, steps)`` of a legal candidate."""
        method = c.method
        if isinstance(method, NaiveScan):
            dry = self.ctx.reader.dry()
            dry.marginal(self.ctx.start)
            dry.cpt_run(self.ctx.start + 1, self.ctx.stop)
            return dry.reads, dry.reads, self.width
        if isinstance(method, FixedBTree):
            return self._btree()
        if isinstance(method, FixedTopK):
            reads, steps = self._topk()
            return math.ceil(reads), math.ceil(reads), math.ceil(steps)
        return self._events(method)

    # -- statistics -------------------------------------------------------
    def counts(self, kind: str, predicate) -> _Counts:
        out = _Counts(0.0, 0.0, 0.0, 0.0)
        for term in self.ctx.terms_for(kind, predicate):
            index = self.ctx.indexes[kind][term.indexed_attr]
            entries = 0.0
            if index.indexed.has_value(term.value):
                code = index.indexed.code(term.value)
                entries = index.stats.entries[code] * self.scale
                out.runs += index.stats.runs[code] * self.scale
                out.frames += index.stats.frames[code] * self.scale
            out.entries += entries
            per_leaf = len(index.tree) / max(1, index.tree.num_leaves)
            out.cursor += index.tree.height + math.ceil(entries / per_leaf)
        out.entries = min(out.entries, self.width)
        out.frames = min(out.frames, self.frames)
        return out

    def walk(self, steps: float, runs: float, frames: float,
             heads: float) -> float:
        """Reads of walking ``steps`` timesteps in ``runs`` runs on
        ``frames`` frames, ``heads`` runs started by a marginal read: a
        descent per run (a packed run that starts in the cached frame
        needs none, so at most one per frame), then a leaf per
        ``per_leaf`` steps."""
        descents = min(runs, frames) if self.pack > 1 else runs
        return heads * self.marginal_cost + descents * self.cpt_cost + \
            steps / self.per_leaf

    # -- candidates ---------------------------------------------------------
    def _btree(self) -> Tuple[int, int, int]:
        """Every entry of the rarest indexed link anchors a match, and
        the intervals are walked in anywhere between one merged run
        (low) and one run per anchor (high), each a marginal read and,
        past one link, a run read. The cursor term, every covered
        link's window range read whole, is an upper bound (up to leaf
        alignment) on what Alg 2 reads: it reads the rarest link's
        range, then each other link's narrowed to the candidates
        left."""
        predicates = self.ctx.query.predicates()
        n = len(predicates)
        links = [self.counts("btc", p) for p in predicates
                 if self.ctx.terms_for("btc", p) is not None]
        anchors = min(c.entries for c in links)
        steps = min(self.width, anchors * n)
        frames = min(self.frames, anchors * ((n - 1) // self.pack + 2))
        if len(links) == n:  # every walked step is some link's entry
            frames = min(frames, max(c.frames for c in links))
        cursor = sum(c.cursor for c in links)
        low = cursor + (self.walk(steps, n > 1, 1, 1) if anchors else 0)
        high = cursor + self.walk(steps, anchors * (n > 1), frames, anchors)
        return math.ceil(low), math.ceil(high), math.ceil(steps)

    def _topk(self) -> Tuple[float, float]:
        """The worst case: every entry popped, none pruned, each
        candidate's n link marginals read and its interval walked."""
        links = [self.counts("btp", p) for p in self.ctx.query.predicates()]
        n = len(links)
        candidates = min(self.width, sum(c.entries for c in links))
        if self.pack > 1:
            each = 2 * ((n - 1) // self.pack + 1) * self.cpt_cost
        else:  # n line-9 marginals, then the interval's marginal and run
            each = (n + 1) * self.marginal_cost + (n > 1) * self.cpt_cost \
                + (n - 1) / self.per_leaf
        return sum(c.cursor for c in links) + candidates * each, \
            candidates * n

    def _events(self, method: AccessMethod) -> Tuple[int, int, int]:
        """Algs 4 and 5: the events at their most, in one run (low) or
        in as many runs as the statistics allow (high)."""
        ctx = self.ctx
        predicates = ctx.relevant_predicates()
        counts = [self.counts("btc", p) for p in predicates]
        cursor = sum(c.cursor for c in counts)
        events, runs, fewest, most = self._union(counts)
        high = cursor + self.walk(events, runs, most, 1)
        if runs > 1:
            high += (runs - 1) * self._gap(method, events, runs)
        loop = ctx.conditioned_loop() if getattr(
            method, "use_conditioned", False) else None
        if loop is not None:
            # Loop-only runs may all be crossed in one loop span each.
            sig = ctx.query.links[loop[0]].loop.signature()
            looped = next(c for p, c in zip(predicates, counts)
                          if p.signature() == sig)
            high += looped.runs * (2 * self._gap(method, events, runs)
                                   + self.cpt_cost)
            events, _, fewest, _ = self._union(
                [c for c in counts if c is not looped])
        low = cursor + (self.walk(events, 1, fewest, 1) if events else 0)
        return math.ceil(low), math.ceil(high), math.ceil(events)

    def _union(self, counts: List[_Counts]
               ) -> Tuple[float, float, float, float]:
        """``(events, most runs, fewest frames, most frames)`` of a union
        of predicates' entries, taken as disjoint."""
        events = min(self.width, sum(c.entries for c in counts))
        runs = min(events, sum(c.runs for c in counts),
                   self.width - events + 1)
        fewest = max([events / self.pack] + [c.frames for c in counts])
        most = min(self.frames, sum(c.frames for c in counts))
        return events, runs, fewest, most

    def _gap(self, method: AccessMethod, events: float, runs: float) -> float:
        """Most reads to cross one of ``runs - 1`` gaps between runs."""
        if isinstance(method, SemiIndependent):
            return self.marginal_cost
        alpha = self.ctx.mc.alpha
        gap = (self.width - events) / max(1.0, runs - 1) + 1
        pieces = 2 * (alpha - 1) * (math.log(gap, alpha) + 1)
        return pieces * max(self.ctx.mc.tree.height, self.cpt_cost)
