"""Caldera: the system facade.

One :class:`Caldera` instance manages a storage environment containing
archived Markovian streams, their secondary indexes, dimension tables,
and the catalog — and executes Regular event queries through the access
methods of :mod:`repro.access`, either auto-planned (Fig 5b) or pinned
explicitly.

Typical use::

    with Caldera("/data/caldera") as db:
        db.register_dimension_table("LocationType", plan.dimension_table())
        db.archive(stream, layout="separated", mc_alpha=None,
                   join_tables=("LocationType",))
        q = db.parse("location=H1 -> location=O300")
        result = db.query(stream.name, q)            # planner picks Alg 2
        topk = db.query(stream.name, q, k=3)         # Alg 3
        print(result.top(1), result.stats.summary())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..access import QueryContext, QueryResult
from ..errors import CatalogError, PlanningError
from ..indexes import (
    build_btc,
    build_btp,
    build_mc,
    open_btc,
    open_btp,
    open_mc,
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
        """Register a star-schema dimension table (§3.4.1)."""
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
        if self.catalog.has_stream(stream.name):
            raise CatalogError(f"stream {stream.name!r} is already archived")
        write_stream(self.env, stream, layout)
        meta = StreamMeta(stream.name, len(stream), layout, stream.space)
        dimensions = self.dimension_tables()

        indexed_attrs: List[str] = []
        if btc or btp:
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
            if btc:
                build_btc(self.env, stream.name, stream.space, attr, pairs,
                          dimensions=dimensions)
                meta.indexes[f"btc:{attr}"] = {}
            if btp:
                build_btp(self.env, stream.name, stream.space, attr, pairs,
                          dimensions=dimensions)
                meta.indexes[f"btp:{attr}"] = {}

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
        btc = {}
        btp = {}
        mc = None
        mc_conditioned = {}
        for key, params in meta.indexes.items():
            kind, _, detail = key.partition(":")
            if kind == "btc":
                btc[detail] = open_btc(self.env, stream_name, meta.space,
                                       detail, dimensions=dimensions)
            elif kind == "btp":
                btp[detail] = open_btp(self.env, stream_name, meta.space,
                                       detail, dimensions=dimensions)
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
        return QueryContext(
            reader=reader, query=query, btc=btc, btp=btp, mc=mc,
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
        """The planner's decision for a query, without executing it."""
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
            ``auto`` (planner, Fig 5b) or one of
            ``naive``/``btree``/``topk``/``mc``/``semi``.
        k / threshold:
            Top-k or threshold retrieval. With a non-top-k method the
            full signal is computed and the top-k/threshold filter
            applied afterwards (the Sort operator of Fig 5a).
        approximate:
            Allow the planner to choose the semi-independent method.
        cold:
            Drop all buffer-pool caches first, so the run measures
            physical I/O from a cold start.
        start / stop:
            Restrict the query to matches ending in ``[start, stop)``
            (fixed-length matches must lie entirely inside the window).
        """
        ctx = self.context(stream_name, query, mc_min_level=mc_min_level,
                           start=start, stop=stop)
        if method == "auto":
            decision = plan(ctx, k=k, threshold=threshold,
                            approximate=approximate,
                            use_conditioned=use_conditioned,
                            registry=self.env.metrics,
                            tracer=self.env.tracer())
            access = decision.method
        else:
            access = method_by_name(name=method, k=k, threshold=threshold,
                                    use_conditioned=use_conditioned)
        if cold:
            self.drop_caches()
        result = access.run(ctx)
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
