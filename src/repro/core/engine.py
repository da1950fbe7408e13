"""Caldera: the system facade.

One :class:`Caldera` instance manages a storage environment containing
archived Markovian streams, their secondary indexes, dimension tables,
and the catalog — and executes Regular event queries through the access
methods of :mod:`repro.access`, either auto-planned (the legal method
with the fewest predicted page reads, :mod:`repro.core.planner`) or
pinned explicitly.

Typical use::

    with Caldera("/data/caldera") as db:
        db.register_dimension_table("LocationType", plan.dimension_table())
        db.archive(stream, layout="separated", mc_alpha=None,
                   join_tables=("LocationType",))
        q = db.parse("location=H1 -> location=O300")
        result = db.query(stream.name, q)            # planner's choice
        topk = db.query(stream.name, q, k=3)         # top-k, or X + Sort
        print(result.top(1), result.stats.summary())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..access import QueryContext, QueryResult
from ..errors import CatalogError, PlanningError
from ..indexes import (
    ValueStats,
    build_mc,
    build_value_indexes,
    open_mc,
    open_value_index,
)
from ..query import RegularQuery, parse_query
from ..query.predicates import Predicate
from ..storage import DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES, StorageEnvironment
from ..streams import (
    Catalog,
    Layout,
    MarkovianStream,
    StreamMeta,
    StreamReader,
    open_reader,
    write_stream,
)
from .planner import PlanDecision, method_by_name, plan


class Caldera:
    """A Caldera database over one storage directory."""

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_pages: int = DEFAULT_POOL_PAGES,
    ) -> None:
        self.env = StorageEnvironment(path, page_size=page_size,
                                      pool_pages=pool_pages)
        self.catalog = Catalog(self.env)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.env.close()

    def __enter__(self) -> "Caldera":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def stats(self):
        """The environment-wide I/O counters."""
        return self.env.stats

    def drop_caches(self) -> None:
        """Flush and evict all buffer pools (cold-cache measurements)."""
        self.env.drop_caches()

    # -- dimension tables ----------------------------------------------------
    def register_dimension_table(self, name: str, mapping: Dict,
                                 replace: bool = False) -> None:
        """Register a star-schema dimension table (§3.4.1).

        ``replace=True`` raises :class:`CatalogError` when an archived
        stream's join indexes read the table and the mapping changes.
        """
        self.catalog.register_dimension(name, mapping, replace=replace)

    def dimension_tables(self) -> Dict[str, Dict]:
        return {
            name: self.catalog.dimension(name)
            for name in self.catalog.list_dimensions()
        }

    # -- archiving ------------------------------------------------------------
    def archive(
        self,
        stream: MarkovianStream,
        layout: Union[Layout, str] = Layout.SEPARATED,
        btc: bool = True,
        btp: bool = True,
        mc_alpha: Optional[int] = None,
        join_tables: Sequence[str] = (),
        conditioned_predicates: Sequence[Predicate] = (),
    ) -> StreamMeta:
        """Write a stream to disk and build its indexes.

        Parameters
        ----------
        layout:
            Physical layout (§3.4.2), ``separated`` by default (the
            paper's winner on RFID data).
        btc / btp:
            Build the chronological / probability secondary indexes over
            every stream attribute.
        mc_alpha:
            Build the MC index with this branching factor (None = skip).
        join_tables:
            Dimension tables to additionally build join indexes for, on
            every stream attribute whose values the table maps.
        conditioned_predicates:
            Positive Kleene loop predicates to build conditioned MC
            indexes for (§3.3.2).
        """
        layout = Layout.parse(layout)
        # Tree names are ``<stream>__<suffix>``: any other name could put
        # one stream's ``<stream>__`` prefix on another's (or the
        # catalog's) trees, and drop_stream would delete them.
        if not stream.name or "__" in stream.name or \
                stream.name.endswith("_"):
            raise CatalogError(
                f"stream name {stream.name!r} must be non-empty, contain no "
                "'__' and not end in '_'"
            )
        if self.catalog.has_stream(stream.name):
            raise CatalogError(f"stream {stream.name!r} is already archived")
        pack = write_stream(self.env, stream, layout).pack
        meta = StreamMeta(stream.name, len(stream), layout, stream.space)
        dimensions = self.dimension_tables()

        kinds = [kind for kind, wanted in (("btc", btc), ("btp", btp))
                 if wanted]
        indexed_attrs: List[str] = []
        if kinds:
            indexed_attrs.extend(stream.space.attributes)
            for table in join_tables:
                if table not in dimensions:
                    raise CatalogError(f"unknown dimension table {table!r}")
                for attr in stream.space.attributes:
                    vocab = stream.space.vocabulary(attr)
                    if any(v in dimensions[table] for v in vocab.values()):
                        indexed_attrs.append(f"{attr}/{table}")

        pairs = [(t, stream.marginals[t]) for t in range(len(stream))]
        for attr in indexed_attrs:
            built = build_value_indexes(self.env, stream.name, stream.space,
                                        attr, pairs, kinds,
                                        dimensions=dimensions, pack=pack)
            for kind, index in built.items():
                meta.indexes[f"{kind}:{attr}"] = index.stats.to_dict()

        if mc_alpha is not None and len(stream) > 2:
            reader = open_reader(self.env, stream.name, stream.space,
                                 len(stream), layout, record=meta.record)
            build_mc(self.env, stream.name, reader, alpha=mc_alpha)
            meta.indexes["mc"] = {"alpha": mc_alpha}
            for predicate in conditioned_predicates:
                build_mc(self.env, stream.name, reader, alpha=mc_alpha,
                         predicate=predicate, space=stream.space)
                meta.indexes[f"mcc:{predicate.signature()}"] = {
                    "alpha": mc_alpha
                }

        self.catalog.register_stream(meta)
        return meta

    def drop_stream(self, stream_name: str) -> None:
        """Remove an archived stream and every file belonging to it
        (data trees, secondary indexes, MC indexes) plus its catalog
        entry."""
        if not self.catalog.has_stream(stream_name):
            raise CatalogError(f"unknown stream {stream_name!r}")
        prefix = stream_name + "__"
        for name in list(self.env.list_trees()):
            if name.startswith(prefix):
                self.env.drop_tree(name)
        self.catalog.drop_stream(stream_name)

    def build_conditioned_mc(self, stream_name: str, predicate: Predicate,
                             alpha: Optional[int] = None) -> None:
        """Build a conditioned MC index for an already-archived stream."""
        meta = self.catalog.stream_meta(stream_name)
        if alpha is None:
            alpha = meta.indexes.get("mc", {}).get("alpha", 2)
        reader = self.reader(stream_name)
        build_mc(self.env, stream_name, reader, alpha=alpha,
                 predicate=predicate, space=meta.space)
        meta.indexes[f"mcc:{predicate.signature()}"] = {"alpha": alpha}
        self.catalog.update_stream(meta)

    # -- access ---------------------------------------------------------------
    def stream_names(self) -> List[str]:
        return self.catalog.list_streams()

    def stream_meta(self, name: str) -> StreamMeta:
        return self.catalog.stream_meta(name)

    def reader(self, name: str) -> StreamReader:
        meta = self.catalog.stream_meta(name)
        return open_reader(self.env, name, meta.space, meta.length,
                           meta.layout, record=meta.record)

    def parse(self, text: str) -> RegularQuery:
        """Parse query text against this database's dimension tables."""
        return parse_query(text, dimensions=self.dimension_tables())

    def context(
        self,
        stream_name: str,
        query: Union[RegularQuery, str],
        mc_min_level: int = 1,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> QueryContext:
        """Assemble a query context with every available index opened."""
        if isinstance(query, str):
            query = self.parse(query)
        meta = self.catalog.stream_meta(stream_name)
        dimensions = self.dimension_tables()
        reader = self.reader(stream_name)
        indexes: Dict[str, Dict] = {"btc": {}, "btp": {}}
        mc = None
        mc_conditioned = {}
        derived = False
        for key, params in meta.indexes.items():
            kind, _, detail = key.partition(":")
            if kind in indexes:
                index = indexes[kind][detail] = open_value_index(
                    self.env, stream_name, meta.space, kind, detail,
                    dimensions=dimensions,
                    stats=ValueStats.from_dict(params))
                if index.stats is None:
                    # Archived before the catalog kept the statistics:
                    # count them once from the leaves, then record them.
                    index.stats = ValueStats.scan(index, reader.pack)
                    params.update(index.stats.to_dict())
                    derived = True
            elif kind == "mc":
                mc = open_mc(self.env, stream_name,
                             alpha=params.get("alpha", 2), length=meta.length)
            elif kind == "mcc":
                # Conditioned indexes are matched to query loops by
                # predicate signature.
                for link in query.links:
                    if link.has_positive_loop and \
                            link.loop.signature() == detail:
                        mc_conditioned[detail] = open_mc(
                            self.env, stream_name,
                            alpha=params.get("alpha", 2),
                            length=meta.length, predicate=link.loop,
                            space=meta.space,
                        )
        if derived:
            self.catalog.update_stream(meta)
        return QueryContext(
            reader=reader, query=query, indexes=indexes, mc=mc,
            mc_conditioned=mc_conditioned, mc_min_level=mc_min_level,
            start=start, stop=stop,
        )

    def explain(
        self,
        stream_name: str,
        query: Union[RegularQuery, str],
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        approximate: bool = False,
        use_conditioned: bool = False,
    ) -> PlanDecision:
        """The planner's decision for a query, without executing it: the
        chosen method, why, and every candidate's predicted reads (or
        why it is illegal). Planning may probe the BT_C cursors."""
        ctx = self.context(stream_name, query)
        return plan(ctx, k=k, threshold=threshold, approximate=approximate,
                    use_conditioned=use_conditioned,
                    registry=self.env.metrics, tracer=self.env.tracer())

    def query(
        self,
        stream_name: str,
        query: Union[RegularQuery, str],
        method: str = "auto",
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        approximate: bool = False,
        use_conditioned: bool = False,
        mc_min_level: int = 1,
        cold: bool = False,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> QueryResult:
        """Execute a Regular query on an archived stream.

        Parameters
        ----------
        method:
            ``auto`` (the planner; its probe's reads count in the
            result's I/O, and ``planner.cost_error`` records predicted /
            actual reads) or one of
            ``naive``/``btree``/``topk``/``mc``/``semi``.
        k / threshold:
            Top-k or threshold retrieval. With a non-top-k method the
            full signal is computed and the top-k/threshold filter
            applied afterwards (the Sort operator of Fig 5a).
        approximate:
            Allow the planner to choose the semi-independent method.
        use_conditioned:
            Allow conditioned MC skipping (§3.3.2): a planner
            candidate, or the mode of a pinned ``mc``.
        cold:
            Drop all buffer-pool caches first, so the run measures
            physical I/O from a cold start.
        start / stop:
            Restrict the query to matches ending in ``[start, stop)``
            (fixed-length matches must lie entirely inside the window).
        """
        ctx = self.context(stream_name, query, mc_min_level=mc_min_level,
                           start=start, stop=stop)
        if cold:
            self.drop_caches()
        if method != "auto":
            access = method_by_name(name=method, k=k, threshold=threshold,
                                    use_conditioned=use_conditioned)
            result = access.run(ctx)
        else:
            snap = self.env.stats.snapshot()
            decision = plan(ctx, k=k, threshold=threshold,
                            approximate=approximate,
                            use_conditioned=use_conditioned,
                            registry=self.env.metrics,
                            tracer=self.env.tracer())
            access = decision.method
            result = access.run(ctx)
            # The planner's probe is part of the query's reads.
            result.stats.io = self.env.stats.delta(snap)
            self.env.metrics.histogram(
                "planner.cost_error", method=access.name).observe(
                    decision.predicted / max(1, result.stats.io.logical_reads))
        if access.name != "topk":
            # Apply the Sort/Top operator downstream of Ex when requested.
            if threshold is not None:
                result.signal = result.above(threshold)
            elif k is not None:
                result.signal = sorted(result.top(k))
        return result

    def query_all(
        self,
        query: Union[RegularQuery, str],
        streams: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> Dict[str, QueryResult]:
        """Run one query over several archived streams.

        Useful for fleet questions ("when did *anyone* visit room X?"):
        Regular queries are defined per stream (§3.4.2), so the engine
        fans the query out and returns per-stream results keyed by
        stream name. Extra keyword arguments pass through to
        :meth:`query`.
        """
        names = list(streams) if streams is not None else self.stream_names()
        return {name: self.query(name, query, **kwargs) for name in names}

    # -- reporting --------------------------------------------------------------
    def data_density(self, stream_name: str,
                     query: Union[RegularQuery, str]) -> float:
        """The stream's data density w.r.t. a query (§4.1.2): the
        fraction of timesteps relevant to any query predicate."""
        if isinstance(query, str):
            query = self.parse(query)
        meta = self.catalog.stream_meta(stream_name)
        ctx = self.context(stream_name, query)
        relevant = set()
        from ..access import collect_relevant_events

        try:
            events = collect_relevant_events(ctx, query.indexable_predicates())
            relevant = {t for t, _ in events}
        except PlanningError:
            reader = self.reader(stream_name)
            sets = query.relevant_state_sets(meta.space)
            union = frozenset().union(*sets) if sets else frozenset()
            for t in range(meta.length):
                marginal = reader.marginal(t)
                if any(s in marginal for s in union):
                    relevant.add(t)
        return len(relevant) / meta.length if meta.length else 0.0

    def storage_report(self) -> Dict[str, int]:
        """On-disk bytes per database file (streams and indexes)."""
        return {
            name: self.env.file_size(name) for name in self.env.list_trees()
        }
