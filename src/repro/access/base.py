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
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import PlanningError
from ..indexes.btc import BTCIndex, PredicateChronoCursor
from ..indexes.btp import BTPIndex, PredicateProbCursor
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


class QueryContext:
    """Everything an access method needs to run one query.

    Parameters
    ----------
    reader:
        The archived stream.
    query:
        The Regular query.
    btc / btp:
        Available secondary indexes, keyed by indexed-attribute name
        (``location`` or ``location/LocationType``).
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
        btc: Optional[Dict[str, BTCIndex]] = None,
        btp: Optional[Dict[str, BTPIndex]] = None,
        mc: Optional[MCIndex] = None,
        mc_conditioned: Optional[Dict[str, MCIndex]] = None,
        mc_min_level: int = 1,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        self.reader = reader
        self.query = query
        self.space = reader.space
        self.btc = dict(btc or {})
        self.btp = dict(btp or {})
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

    # ------------------------------------------------------------------
    def btc_terms_for(self, predicate: Predicate):
        """The BT_C index terms covering ``predicate``, resolved against
        the available indexes (join index preferred, value-level
        fallback); None when the predicate cannot be covered."""
        return self._terms_for(predicate, self.btc)

    def btp_terms_for(self, predicate: Predicate):
        """Like :meth:`btc_terms_for` but over BT_P indexes."""
        return self._terms_for(predicate, self.btp)

    def _terms_for(self, predicate: Predicate, available: Dict):
        if not predicate.indexable:
            return None
        terms = predicate.index_terms(self.space)
        if all(term.indexed_attr in available for term in terms):
            return terms
        fallback = getattr(predicate, "value_level_terms", None)
        if fallback is not None:
            terms = fallback(self.space)
            if all(term.indexed_attr in available for term in terms):
                return terms
        return None

    def chrono_cursor(self, predicate: Predicate) -> PredicateChronoCursor:
        terms = self.btc_terms_for(predicate)
        if terms is None:
            raise PlanningError(
                f"no BT_C index covers predicate {predicate.signature()}"
            )
        return PredicateChronoCursor(
            lambda term: self.btc[term.indexed_attr], terms
        )

    def prob_cursor(self, predicate: Predicate) -> PredicateProbCursor:
        terms = self.btp_terms_for(predicate)
        if terms is None:
            raise PlanningError(
                f"no BT_P index covers predicate {predicate.signature()}"
            )
        return PredicateProbCursor(
            lambda term: self.btp[term.indexed_attr], terms
        )


class RegRun:
    """The one place where archive reads feed Reg and get counted.

    Every access method steps a run instead of calling the reader and
    :class:`Reg` itself: each method below makes one point read and
    counts it in the run's :class:`AccessStats`. Gap jumps whose CPT
    comes from the MC index call :attr:`reg` directly; the index counts
    its own reads in ``stats.mc_lookups``.
    """

    def __init__(self, ctx: QueryContext, stats: AccessStats) -> None:
        self.reader = ctx.reader
        self.reg = Reg(ctx.query, ctx.space)
        self.stats = stats

    def marginal(self, t: int) -> SparseDistribution:
        """The marginal at ``t`` (also top-k's line-9 bound probe)."""
        self.stats.marginals_read += 1
        return self.reader.marginal(t)

    def start(self, t: int) -> float:
        """Start a fresh run on the marginal at ``t``."""
        self.stats.reg_initializations += 1
        return self.reg.initialize(self.marginal(t))

    def step(self, t: int) -> float:
        """Advance the run into ``t`` by the CPT from ``t - 1``."""
        self.stats.cpts_read += 1
        return self.reg.update(self.reader.cpt_into(t))

    def interval(self, s: int, e: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(t, p)`` for every ``t`` in ``[s, e]``, starting a
        fresh run at ``s``."""
        yield s, self.start(s)
        for t in range(s + 1, e + 1):
            yield t, self.step(t)

    def independent(self, t: int, span: int) -> float:
        """Jump ``span`` steps to ``t`` under the independence
        approximation (Algorithm 5): only the marginal at ``t`` is read."""
        return self.reg.update_independent(self.marginal(t), span=span)


class AccessMethod:
    """Base class: a physical implementation of the Ex operator."""

    name = "abstract"

    def run(self, ctx: QueryContext) -> QueryResult:
        """Execute, timing the run and capturing the I/O delta."""
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
