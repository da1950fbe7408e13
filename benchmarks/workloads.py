"""Workload construction and caching for the benchmark suite.

Datasets mirror §4.1, built by :mod:`repro.streams.synthetic`:

- **synthetic** (§4.1.1): snippet-concatenated streams with controlled
  data density and query-match rate over a small cell grid with one
  doorway and one target room.
- **routines** (§4.1.2): simulated daily routines — the "real data"
  substitute with bimodal density.

Scaled down by default so the whole suite runs in minutes of pure
Python; set ``REPRO_BENCH_FULL=1`` for paper scale. Built databases are
cached on disk under ``benchmarks/.cache`` keyed by their parameters,
so repeated benchmark runs skip regeneration.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, Optional, Sequence, Tuple

from repro.core import Caldera
from repro.probability.cpt import RECORD_VERSION
from repro.streams import Layout, routine_stream, synthetic_stream

CACHE_ROOT = os.environ.get(
    "REPRO_BENCH_CACHE",
    os.path.join(os.path.dirname(__file__), ".cache"),
)
FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Snippets per synthetic stream (30 timesteps each).
SYNTHETIC_SNIPPETS = 1000 if FULL_SCALE else 100
#: Timesteps per routine trace (the paper's Pat stream is 1683).
ROUTINE_DURATION = 1683 if FULL_SCALE else 600
ROUTINE_PEOPLE = 8 if FULL_SCALE else 4

PAGE_SIZE = 8192

#: The synthetic world's target room and the doorway into it.
TARGET_ROOM = "Room"
TARGET_DOORWAY = "Door"

ENTERED_ROOM_QUERY = f"location={TARGET_DOORWAY} -> location={TARGET_ROOM}"
ENTERED_ROOM_KLEENE = (
    f"location={TARGET_DOORWAY} -> "
    f"(!location={TARGET_ROOM})* location={TARGET_ROOM}"
)


def _cache_dir(kind: str, params: Dict) -> Tuple[str, bool]:
    """Cache directory for one workload; returns (path, already_built).
    The key holds the CPT record version, so a cache written in another
    record format is never reopened."""
    key = json.dumps({**params, "record": RECORD_VERSION}, sort_keys=True)
    import hashlib

    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]
    path = os.path.join(CACHE_ROOT, f"{kind}-{digest}")
    marker = os.path.join(path, "BUILT.json")
    if os.path.exists(marker):
        return path, True
    if os.path.exists(path):
        shutil.rmtree(path)  # partial build: start over
    os.makedirs(path, exist_ok=True)
    return path, False


def _mark_built(path: str, params: Dict) -> None:
    with open(os.path.join(path, "BUILT.json"), "w") as handle:
        json.dump(params, handle, indent=2, sort_keys=True)


def synthetic_db(
    density: float,
    match_rate: float = 1.0,
    num_snippets: Optional[int] = None,
    layouts: Sequence[Layout] = (Layout.SEPARATED,),
    seed: int = 7,
    mc_alpha: Optional[int] = None,
    conditioned_query: Optional[str] = None,
) -> Caldera:
    """A Caldera DB holding one synthetic stream per requested layout.

    Stream names are ``syn_{layout.value}``. Indexed with BT_C and BT_P
    (plus the MC index when ``mc_alpha`` is set, and a conditioned MC
    index per positive loop of ``conditioned_query``).
    """
    num_snippets = num_snippets if num_snippets is not None else SYNTHETIC_SNIPPETS
    params = {
        "density": density,
        "match_rate": match_rate,
        "num_snippets": num_snippets,
        "layouts": sorted(layout.value for layout in layouts),
        "seed": seed,
        "mc_alpha": mc_alpha,
        "target": TARGET_ROOM,
    }
    if conditioned_query is not None:
        params["conditioned_query"] = conditioned_query
    path, built = _cache_dir("synthetic", params)
    db = Caldera(path, page_size=PAGE_SIZE)
    if built:
        return db
    stream = synthetic_stream(
        "syn", num_snippets=num_snippets, density=density,
        match_rate=match_rate, seed=seed,
    )
    loops = [] if conditioned_query is None else [
        link.loop for link in db.parse(conditioned_query).links
        if link.has_positive_loop]
    for layout in layouts:
        stream.name = f"syn_{layout.value}"
        db.archive(stream, layout=layout, mc_alpha=mc_alpha,
                   conditioned_predicates=loops)
    _mark_built(path, params)
    return db


def routines_db(
    num_people: Optional[int] = None,
    duration: Optional[int] = None,
    seed: int = 11,
    layout: Layout = Layout.SEPARATED,
    mc_alpha: Optional[int] = None,
) -> Caldera:
    """A Caldera DB holding the routine ("real data") streams
    ``person0..personN``."""
    num_people = num_people if num_people is not None else ROUTINE_PEOPLE
    duration = duration if duration is not None else ROUTINE_DURATION
    params = {
        "num_people": num_people,
        "duration": duration,
        "seed": seed,
        "layout": layout.value,
        "mc_alpha": mc_alpha,
    }
    path, built = _cache_dir("routines", params)
    db = Caldera(path, page_size=PAGE_SIZE)
    if built:
        return db
    snippets = max(3, duration // 30)
    for person in range(num_people):
        stream = routine_stream(
            f"person{person}", num_snippets=snippets, seed=seed + person,
        )
        db.archive(stream, layout=layout, mc_alpha=mc_alpha)
    _mark_built(path, params)
    return db

