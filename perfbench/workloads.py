"""The benchmark's three workloads.

Every workload runs synthetic 10-state streams (8 corridor cells, a
Door and a Room) archived in both the ``separated`` and the ``packed``
layout, through the public :class:`Caldera` API, with one client in a
closed loop. A *round* is one pass over a workload's op mix; the runner
repeats rounds until its time is up, so every count per round is exact.

- ``scan_dense``: density 1.0, so every timestep is relevant and the
  indexes prune nothing; fetch, decode and the Reg kernel do the work.
  The database (about 1.9 MiB) fits the buffer pool.
- ``index_sparse``: density 0.05, so queries touch about 5% of the
  timesteps; cursors, MC span lookups, point reads and per-query fixed
  costs take a much larger share. The database (about 20 MiB) is larger
  than the buffer pool (1,024 pages of 8 KiB).
- ``archive``: ``Caldera.archive`` calls building BT_C, BT_P and the MC
  index; writes, WAL fsyncs and MC ``compose`` instead of reads.
"""

from __future__ import annotations

import functools
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import Caldera
from repro.indexes import open_mc
from repro.query import parse_query
from repro.streams import ENTERED_ROOM_QUERY, synthetic_stream

import oracle as oracles

LAYOUTS = ("separated", "packed")
MC_ALPHA = 2
MATCH_RATE = 0.5
SNIPPET_LEN = 30

KLEENE_QUERY = "location=Door -> (!location=Room)* location=Room"
NO_INDEX_QUERY = "!location=Door -> !location=Room"
CONDITIONED_QUERY = "location=Door -> (location=C1)* location=Room"


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    label: str
    #: Stream timesteps the op covers (query window, or steps archived).
    steps: int
    run: Callable[[], Any]
    #: Returns None when the result is correct, else what is wrong.
    check: Callable[[Any], Optional[str]]


@dataclass
class QuerySpec:
    label: str
    text: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Run on the copy archived without an MC index (Alg 5).
    on_copy: bool = False


class QueryWorkload:
    """Query a database built at set-up; rounds run every query on
    every layout."""

    def __init__(self, snippets: int, density: float,
                 queries: List[QuerySpec], conditioned: bool = False) -> None:
        self.snippets = snippets
        self.density = density
        self.queries = queries
        self.conditioned = conditioned
        self.copy_without_mc = any(q.on_copy for q in queries)
        self.db: Optional[Caldera] = None
        self._path: Optional[Path] = None
        self.stream = None
        self.oracle = None
        self.archived_steps = 0
        self.pages_written = 0
        self.stored_bytes = 0

    # -- set-up ----------------------------------------------------------
    def setup(self, path: Path, seed: int) -> None:
        """Generate the stream and archive it (the timed set-up)."""
        self.close()
        self._path = path
        stream = synthetic_stream("syn", num_snippets=self.snippets,
                                  snippet_len=SNIPPET_LEN,
                                  density=self.density,
                                  match_rate=MATCH_RATE, seed=seed)
        db = self.db = Caldera(str(path))
        conditioned = []
        if self.conditioned:
            query = db.parse(CONDITIONED_QUERY)
            conditioned = [link.loop for link in query.links
                           if link.has_positive_loop]
        written = db.stats.physical_writes
        archived = 0
        for layout in LAYOUTS:
            stream.name = _stream_name(layout, False)
            db.archive(stream, layout=layout, mc_alpha=MC_ALPHA,
                       conditioned_predicates=conditioned)
            archived += len(stream)
            if self.copy_without_mc:
                # Alg 5 needs BT_C coverage and no MC index.
                stream.name = _stream_name(layout, True)
                db.archive(stream, layout=layout, btp=False)
                archived += len(stream)
        self.stream = stream
        self.archived_steps = archived
        self.pages_written = db.stats.physical_writes - written
        self.stored_bytes = sum(db.storage_report().values())

    def prepare_oracle(self, reference_reg) -> None:
        self.oracle = oracles.Oracle(self.stream, reference_reg, parse_query)

    # -- rounds ----------------------------------------------------------
    def begin_round(self, index: int) -> None:
        pass

    def end_round(self) -> None:
        pass

    def ops(self) -> List[Op]:
        length = len(self.stream)
        return [
            Op(f"{layout}/{q.label}", length,
               functools.partial(self.db.query, _stream_name(layout, q.on_copy),
                                 q.text, **q.kwargs),
               functools.partial(self._check, q))
            for layout in LAYOUTS for q in self.queries
        ]

    def _check(self, spec: QuerySpec, result) -> Optional[str]:
        exact = self.oracle.signal(spec.text)
        if result.method == "semi":
            return oracles.check_semi(exact, self.oracle.relevant(spec.text),
                                      result.signal)
        if "k" in spec.kwargs:
            return oracles.check_topk(exact, result.signal, spec.kwargs["k"])
        if spec.kwargs.get("use_conditioned") and result.method == "mc":
            return oracles.check_emitted(exact, result.signal)
        return oracles.check_support(exact, result.signal)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self._path is not None:
            shutil.rmtree(self._path, ignore_errors=True)
            self._path = None


class ArchiveWorkload:
    """Archive fresh seeded streams into a fresh database each round.

    Every op has the same shape: one stream archived in both layouts
    (two ``Caldera.archive`` calls), each building BT_C, BT_P and MC.
    A round archives each of the set-up's streams once, so rounds are
    identical and their counts exact.
    """

    def __init__(self, streams: int, snippets: int, density: float) -> None:
        self.num_streams = streams
        self.snippets = snippets
        self.density = density
        self.streams: List = []
        self.db: Optional[Caldera] = None
        self._root: Optional[Path] = None
        self._round_path: Optional[Path] = None
        self._written0 = 0
        self._round_steps = 0
        self._probes: List[Tuple[int, int]] = []
        self.archived_steps = 0
        self.pages_written = 0
        self.stored_bytes = 0

    def setup(self, path: Path, seed: int) -> None:
        """Generate the streams the rounds archive (the timed set-up)."""
        self.close()
        self._root = path
        path.mkdir(parents=True)
        self.streams = [
            synthetic_stream(f"arc{i}", num_snippets=self.snippets,
                             snippet_len=SNIPPET_LEN, density=self.density,
                             match_rate=MATCH_RATE, seed=seed * 1000 + i)
            for i in range(self.num_streams)
        ]
        rng = random.Random(seed)
        length = len(self.streams[0])
        # Spot checks: eight timesteps, each also the start of an MC span.
        self._probes = [(t, min(length - 1, t + rng.randrange(2, 64)))
                        for t in rng.sample(range(1, length - 1), 8)]

    def prepare_oracle(self, reference_reg) -> None:
        pass

    def begin_round(self, index: int) -> None:
        self._round_path = self._root / f"round{index}"
        self.db = Caldera(str(self._round_path))
        self._written0 = self.db.stats.physical_writes
        self._round_steps = 0

    def end_round(self) -> None:
        db = self.db
        self.pages_written += db.stats.physical_writes - self._written0
        self.stored_bytes += sum(db.storage_report().values())
        self.archived_steps += self._round_steps
        db.close()
        self.db = None
        shutil.rmtree(self._round_path, ignore_errors=True)

    def ops(self) -> List[Op]:
        return [Op(stream.name, len(stream) * len(LAYOUTS),
                   functools.partial(self._archive, stream),
                   functools.partial(self._check, stream))
                for stream in self.streams]

    def _archive(self, stream) -> List[str]:
        base = stream.name
        names = []
        try:
            for layout in LAYOUTS:
                stream.name = f"{base}_{layout}"
                self.db.archive(stream, layout=layout, mc_alpha=MC_ALPHA)
                names.append(stream.name)
                self._round_steps += len(stream)
        finally:
            stream.name = base
        return names

    def _check(self, stream, names: List[str]) -> Optional[str]:
        """Read the archived streams back: metadata, spot timesteps, and
        one MC span against the in-memory CPT product."""
        for name in names:
            meta = self.db.stream_meta(name)
            if meta.length != len(stream):
                return f"{name}: length {meta.length} != {len(stream)}"
            if not {"btc:location", "btp:location", "mc"} <= set(meta.indexes):
                return f"{name}: indexes {sorted(meta.indexes)}"
            reader = self.db.reader(name)
            mc = open_mc(self.db.env, name, alpha=MC_ALPHA, length=meta.length)
            for start, end in self._probes:
                if not reader.marginal(start).approx_equal(
                        stream.marginals[start], tol=oracles.TOL):
                    return f"{name}: marginal {start} differs"
                if not reader.cpt_into(start).approx_equal(
                        stream.cpts[start - 1], tol=oracles.TOL):
                    return f"{name}: CPT into {start} differs"
                want = functools.reduce(lambda a, b: a.compose(b),
                                        stream.cpts[start:end])
                if not mc.compute_cpt(start, end, reader).approx_equal(
                        want, tol=oracles.TOL):
                    return f"{name}: MC span {start}->{end} differs"
        return None

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None


def _stream_name(layout: str, without_mc: bool) -> str:
    return f"syn_{layout}_nomc" if without_mc else f"syn_{layout}"


def make(name: str):
    """A fresh workload object by name."""
    if name == "scan_dense":
        return QueryWorkload(snippets=100, density=1.0, queries=[
            QuerySpec("entered-room", ENTERED_ROOM_QUERY),
            QuerySpec("top-3", ENTERED_ROOM_QUERY, {"k": 3}),
            QuerySpec("kleene", KLEENE_QUERY),
            QuerySpec("no-index", NO_INDEX_QUERY),
        ])
    if name == "index_sparse":
        return QueryWorkload(snippets=400, density=0.05,
                             conditioned=True, queries=[
            QuerySpec("entered-room", ENTERED_ROOM_QUERY),
            QuerySpec("top-3", ENTERED_ROOM_QUERY, {"k": 3}),
            QuerySpec("kleene", KLEENE_QUERY),
            QuerySpec("conditioned", CONDITIONED_QUERY,
                      {"use_conditioned": True}),
            QuerySpec("semi", KLEENE_QUERY, {"approximate": True},
                      on_copy=True),
        ])
    if name == "archive":
        return ArchiveWorkload(streams=2, snippets=50, density=1.0)
    raise ValueError(f"unknown workload {name!r}")
