"""Shared plumbing for Caldera's access methods (the Ex operator, §3).

An access method consumes a :class:`QueryContext` — the archived stream
reader plus whatever indexes exist — and produces a :class:`QueryResult`:
the query-probability signal (pairs ``(t, p)``; absent timesteps have
probability zero) together with detailed cost accounting
(:class:`AccessStats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import PlanningError
from ..indexes.base import ValueIndex
from ..indexes.btc import PredicateChronoCursor
from ..indexes.btp import PredicateProbCursor
from ..indexes.mc import MCIndex, MCLookupStats
from ..lahar.reg import Reg
from ..probability import SparseDistribution
from ..query.predicates import Predicate
from ..query.regular import RegularQuery
from ..storage.stats import IOStats
from ..streams.archive import StreamReader


@dataclass
class AccessStats:
    """Cost accounting for one access-method execution."""

    wall_time: float = 0.0
    io: IOStats = field(default_factory=IOStats)
    reg_initializations: int = 0
    reg_updates: int = 0
    marginals_read: int = 0
    cpts_read: int = 0
    intervals_processed: int = 0
    candidates_examined: int = 0
    candidates_pruned: int = 0
    mc_lookups: MCLookupStats = field(default_factory=MCLookupStats)

    def summary(self) -> str:
        return (
            f"{self.wall_time * 1000:.1f} ms, "
            f"{self.io.logical_reads} logical / {self.io.physical_reads} "
            f"physical page reads, {self.reg_updates} Reg updates"
        )


@dataclass
class QueryResult:
    """The output of one access-method execution."""

    method: str
    query_name: str
    signal: List[Tuple[int, float]]
    stats: AccessStats
    #: Number of candidate match intervals identified (fixed-length methods).
    match_count: int = 0

    def probability_at(self, t: int) -> float:
        """The query probability at one timestep (0 when not emitted)."""
        for ts, p in self.signal:
            if ts == t:
                return p
        return 0.0

    def as_dict(self) -> Dict[int, float]:
        return dict(self.signal)

    def top(self, k: int) -> List[Tuple[int, float]]:
        """The k highest-probability timesteps, by decreasing probability."""
        return sorted(self.signal, key=lambda tp: (-tp[1], tp[0]))[:k]

    def above(self, threshold: float) -> List[Tuple[int, float]]:
        """All (t, p) with ``p >= threshold``, chronologically."""
        return [(t, p) for t, p in self.signal if p >= threshold]

    def peak(self) -> Optional[Tuple[int, float]]:
        """The single highest-probability timestep."""
        tops = self.top(1)
        return tops[0] if tops else None


_KIND_LABELS = {"btc": "BT_C", "btp": "BT_P"}


class QueryContext:
    """Everything an access method needs to run one query.

    Parameters
    ----------
    reader:
        The archived stream.
    query:
        The Regular query.
    indexes:
        Available secondary indexes by kind (``btc``/``btp``), each
        keyed by indexed-attribute name (``location`` or
        ``location/LocationType``).
    mc:
        The plain MC index, if built.
    mc_conditioned:
        Predicate-conditioned MC indexes keyed by predicate signature.
    mc_min_level:
        Lowest MC level the method may use (Fig 11a's level-omission
        experiment); raw level-0 steps always remain available.
    start / stop:
        Optional time window: only matches *ending* in ``[start, stop)``
        are computed, and fixed-length matches must lie entirely inside
        the window. Defaults to the whole stream.
    """

    def __init__(
        self,
        reader: StreamReader,
        query: RegularQuery,
        indexes: Optional[Dict[str, Dict[str, ValueIndex]]] = None,
        mc: Optional[MCIndex] = None,
        mc_conditioned: Optional[Dict[str, MCIndex]] = None,
        mc_min_level: int = 1,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        self.reader = reader
        self.query = query
        self.space = reader.space
        self.indexes = dict(indexes or {})
        self.mc = mc
        self.mc_conditioned = dict(mc_conditioned or {})
        self.mc_min_level = mc_min_level
        self.start = max(0, start)
        self.stop = reader.length if stop is None else min(stop, reader.length)
        if self.start >= self.stop:
            raise PlanningError(
                f"empty query window [{start}, {stop}) for stream of "
                f"length {reader.length}"
            )
        self._probes: Dict[str, object] = {}
        #: Logical page reads spent by :meth:`probe` so far.
        self.probe_reads = 0

    # ------------------------------------------------------------------
    def probe(self, key: str, compute: Callable[[], object]):
        """``compute()``'s result, computed once per context: the index
        probes (Alg 2's anchors, Alg 4/5's relevant events) that the
        planner may run before it chooses, and the chosen method then
        reuses instead of reading the cursors again."""
        if key not in self._probes:
            snap = self.reader.io.snapshot()
            self._probes[key] = compute()
            self.probe_reads += self.reader.io.delta(snap).logical_reads
        return self._probes[key]

    def relevant_predicates(self) -> List[Predicate]:
        """The predicates whose BT_C entries are the query's relevant
        events (Algorithms 4 and 5): its indexable predicates.

        Skipping the timesteps no index lists is sound only when every
        link predicate is indexable, so anything else raises
        :class:`PlanningError`: a link predicate that is negated or
        ``true`` (a negated *loop* is fine — a skipped timestep
        satisfies it), a non-indexable positive loop, or a predicate no
        BT_C index covers (§3.4.1).
        """
        for link in self.query.links:
            loop = link.loop if link.has_positive_loop else None
            for predicate in (link.predicate, loop):
                if predicate is not None and not predicate.indexable:
                    raise PlanningError(
                        f"predicate {predicate.signature()!r} of link "
                        f"{link.signature()!r} is not indexable, so the "
                        "relevant events would miss timesteps; use the "
                        "naive scan"
                    )
        predicates = self.query.indexable_predicates()
        for predicate in predicates:
            self._covering("btc", predicate)  # raises if uncovered
        return predicates

    # ------------------------------------------------------------------
    def terms_for(self, kind: str, predicate: Predicate):
        """The ``kind`` (``btc``/``btp``) index terms covering
        ``predicate``, resolved against the available indexes (join
        index preferred, value-level fallback); None when the predicate
        cannot be covered."""
        if not predicate.indexable:
            return None
        available = self.indexes.get(kind, {})
        terms = predicate.index_terms(self.space)
        if all(term.indexed_attr in available for term in terms):
            return terms
        fallback = getattr(predicate, "value_level_terms", None)
        if fallback is not None:
            terms = fallback(self.space)
            if all(term.indexed_attr in available for term in terms):
                return terms
        return None

    def conditioned_loop(self) -> Optional[Tuple[int, MCIndex]]:
        """``(q, index)`` when the query has exactly one positive Kleene
        loop, at link ``q``, and its conditioned MC index is open: the
        one case §3.3.2's conditioned skipping covers. None otherwise."""
        loops = [q for q, link in enumerate(self.query.links)
                 if link.has_positive_loop]
        if len(loops) != 1:
            return None
        index = self.mc_conditioned.get(
            self.query.links[loops[0]].loop.signature())
        return None if index is None else (loops[0], index)

    def chrono_cursor(self, predicate: Predicate) -> PredicateChronoCursor:
        return PredicateChronoCursor(*self._covering("btc", predicate))

    def prob_cursor(self, predicate: Predicate) -> PredicateProbCursor:
        return PredicateProbCursor(*self._covering("btp", predicate))

    def _covering(self, kind: str, predicate: Predicate):
        """``(index_for_term, terms)`` for a predicate cursor."""
        terms = self.terms_for(kind, predicate)
        if terms is None:
            raise PlanningError(
                f"no {_KIND_LABELS[kind]} index covers predicate "
                f"{predicate.signature()}"
            )
        available = self.indexes[kind]
        return (lambda term: available[term.indexed_attr]), terms


#: Fewest adjacent steps that ``RegRun.walk`` reads and steps as one
#: block: below it, a block's fixed cost outweighs its per-step saving.
_MIN_BLOCK = 5


class RegRun:
    """The one place where archive reads feed Reg and get counted.

    Every access method walks a run (:meth:`walk`) instead of calling
    the reader and :class:`Reg` itself, and every read lands once in the
    run's :class:`AccessStats` (the MC index counts its own in
    ``stats.mc_lookups``). Methods differ only in the timesteps they
    walk and in the gap rule that crosses non-adjacent ones:
    :meth:`span` (Algorithm 4), :meth:`loop_span` (§3.3.2) or
    :meth:`independent` (Algorithm 5).
    """

    def __init__(self, ctx: QueryContext, stats: AccessStats) -> None:
        self.reader = ctx.reader
        self.mc = ctx.mc
        self.mc_min_level = ctx.mc_min_level
        self.reg = Reg(ctx.query, ctx.space)
        self.stats = stats

    def marginal(self, t: int) -> SparseDistribution:
        """The marginal at ``t`` (also top-k's line-9 bound probe)."""
        self.stats.marginals_read += 1
        return self.reader.marginal(t)

    def walk(self, times: Iterable[int],
             jump: Optional[Callable[[int, int], float]] = None,
             ) -> Iterator[Tuple[int, float]]:
        """Yield ``(t, p)`` for each of the increasing ``times``: start a
        fresh run at the first, call ``jump(prev, t)`` across each gap (a
        ``range`` has none) and step the CPTs into each run of adjacent
        ones in blocks of ``_MIN_BLOCK`` to ``reg.block_steps`` steps."""
        reg, reader, prev = self.reg, self.reader, None
        for first, stop in _runs(times):
            if prev is None:
                self.stats.reg_initializations += 1
                p = reg.initialize(self.marginal(first))
            else:
                p = jump(prev, first)
            yield first, p
            for lo in range(first + 1, stop, reg.block_steps):
                hi = min(lo + reg.block_steps, stop)
                self.stats.cpts_read += hi - lo
                if hi - lo < _MIN_BLOCK:
                    for t in range(lo, hi):
                        yield t, reg.update(reader.cpt_into(t))
                else:
                    probs = reg.update_block(reader.scan_cpts(lo, hi))
                    yield from zip(range(lo, hi), probs.tolist())
            prev = stop - 1

    def _plain(self, prev: int, t: int):
        return self.mc.compute_cpt(prev, t, self.reader,
                                   min_level=self.mc_min_level,
                                   stats=self.stats.mc_lookups)

    def span(self, prev: int, t: int) -> float:
        """Cross the gap by the MC index's composed CPT (Algorithm 4)."""
        return self.reg.update_span(self._plain(prev, t), span=t - prev)

    def loop_span(self, loop: Tuple[int, MCIndex], prev: int,
                  t: int) -> float:
        """Cross a Kleene run of the loop at link ``q`` in one update,
        by the plain and the conditioned MC CPT of
        ``loop = (q, conditioned index)`` (§3.3.2)."""
        q, index = loop
        plain = self._plain(prev, t)
        cond = index.compute_conditioned_cpt(
            prev, t, self.reader, min_level=self.mc_min_level,
            stats=self.stats.mc_lookups)
        return self.reg.update_loop_span(q, plain, cond, span=t - prev)

    def independent(self, prev: int, t: int) -> float:
        """Cross the gap under the independence approximation
        (Algorithm 5): only the marginal at ``t`` is read."""
        return self.reg.update_independent(self.marginal(t), span=t - prev)


def _runs(times: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """``(first, stop)`` of each maximal run ``first .. stop - 1`` of
    adjacent timesteps in the increasing ``times``."""
    times = iter(times)
    t = next(times, None)
    while t is not None:
        first = last = t
        for t in times:  # up to the first timestep of the next run
            if t != last + 1:
                break
            last = t
        else:
            t = None
        yield first, last + 1


class DryRun(RegRun):
    """A :class:`RegRun` that reads nothing: it walks the same timesteps
    through the same gap rules and counts, in :attr:`reads`, the logical
    page reads the real run would make (index probes aside: the method
    takes those from :meth:`QueryContext.probe`). ``stats`` fills as in
    a real run. The planner predicts an index method's reads with it."""

    def __init__(self, ctx: QueryContext, stats: AccessStats) -> None:
        self.reader = ctx.reader.dry()
        self.mc = None if ctx.mc is None else DryMC(ctx.mc)
        self.mc_min_level = ctx.mc_min_level
        self.reg = _NullReg(ctx.reader.length)
        self.stats = stats
        self.steps = 0

    @property
    def reads(self) -> int:
        return self.reader.reads

    def loop_span(self, loop: Tuple[int, MCIndex], prev: int,
                  t: int) -> float:
        q, index = loop
        return super().loop_span((q, DryMC(index)), prev, t)


class DryMC:
    """An :class:`MCIndex`'s gap traversal, reading nothing: each record
    lookup adds the index tree's height to the dry reader's ``reads``,
    each raw step is a dry ``cpt_into``."""

    def __init__(self, index: MCIndex) -> None:
        self.index = index

    def compute_cpt(self, start: int, end: int, reader, *,
                    min_level: int = 1,
                    stats: MCLookupStats) -> None:
        lookups = base = 0
        for level, at in self.index.pieces(start, end, min_level):
            if level:
                lookups += 1
            else:
                reader.cpt_into(at + 1)
                base += 1
        reader.reads += lookups * self.index.tree.height
        stats.lookups += lookups
        stats.base_cpts_read += base
        stats.compositions += lookups + base - 1

    def compute_conditioned_cpt(self, start: int, end: int, reader, *,
                                min_level: int = 1,
                                stats: MCLookupStats) -> None:
        # The structure of MCIndex.compute_conditioned_cpt: the raw final
        # step, then the masked interior composed onto it.
        reader.cpt_into(end)
        stats.base_cpts_read += 1
        if end - start > 1:
            self.compute_cpt(start, end - 1, reader, min_level=min_level,
                             stats=stats)
            stats.compositions += 1


class _NullReg:
    """Reg's interface for :class:`DryRun`: every probability is 0."""

    updates_performed = 0

    def __init__(self, length: int) -> None:
        self.block_steps = max(1, length)

    def initialize(self, marginal) -> float:
        return 0.0

    def update(self, cpt) -> float:
        return 0.0

    def update_block(self, block) -> np.ndarray:
        return np.zeros(len(block))

    def update_span(self, cpt, span: int = 1) -> float:
        return 0.0

    def update_loop_span(self, loop_state, plain, cond,
                         span: int = 1) -> float:
        return 0.0

    def update_independent(self, marginal, span: int = 1) -> float:
        return 0.0


class AccessMethod:
    """Base class: a physical implementation of the Ex operator."""

    name = "abstract"

    def check(self, ctx: QueryContext) -> None:
        """Raise :class:`PlanningError` (or :class:`QueryError`) unless
        the method can answer ``ctx`` exactly as documented: the one
        legality rule that both :meth:`run` and the planner apply."""

    def dry_run(self, ctx: QueryContext) -> DryRun:
        """Execute without reading the stream (see :class:`DryRun`);
        the run's ``steps`` is the number of timesteps it emitted."""
        self.check(ctx)
        run = DryRun(ctx, AccessStats())
        run.steps = len(self._execute(ctx, run)[0])
        return run

    def run(self, ctx: QueryContext) -> QueryResult:
        """Execute, timing the run and capturing the I/O delta."""
        self.check(ctx)
        stats = AccessStats()
        io = ctx.reader.io
        snap = io.snapshot()
        t0 = time.perf_counter()
        run = RegRun(ctx, stats)
        signal, match_count = self._execute(ctx, run)
        stats.wall_time = time.perf_counter() - t0
        stats.io = io.delta(snap)
        stats.reg_updates = run.reg.updates_performed
        return QueryResult(
            method=self.name,
            query_name=ctx.query.name,
            signal=signal,
            stats=stats,
            match_count=match_count,
        )

    # ------------------------------------------------------------------
    def _execute(self, ctx: QueryContext, run: RegRun):
        raise NotImplementedError
