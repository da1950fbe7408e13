"""Quickstart: archive a Markovian stream and query it with Caldera.

Builds a synthetic Markovian stream (§4.1.1: a person wanders a
corridor and now and then walks through a doorway into a room),
archives it with the BT_C / BT_P / MC indexes, and runs the paper's
Entered-Room query — fixed-length, then with a Kleene closure — under
several access methods, printing each answer's peak and its cost.

Run: ``PYTHONPATH=src python examples/quickstart.py``
"""

import tempfile

from repro.core import Caldera
from repro.streams import synthetic_stream

ENTERED_ROOM = "location=Door -> location=Room"
ENTERED_ROOM_KLEENE = "location=Door -> (!location=Room)* location=Room"

stream = synthetic_stream("bob", num_snippets=40, density=0.2, seed=7)

with tempfile.TemporaryDirectory() as tmp, Caldera(tmp) as db:
    db.archive(stream, layout="separated", mc_alpha=2)
    print(f"archived {stream.name!r}: {len(stream)} timesteps")

    # Fixed-length: naive scan (Alg 1), B+Tree (Alg 2), top-k (Alg 3).
    print(f"\nquery: {ENTERED_ROOM}")
    for method, k in (("naive", None), ("btree", None), ("topk", 1)):
        result = db.query("bob", ENTERED_ROOM, method=method, k=k)
        t, p = result.peak()
        print(f"  {method:>6}: peak p={p:.3f} at t={t} "
              f"({result.stats.summary()})")
    print(f"  planner chooses: {db.explain('bob', ENTERED_ROOM).name}")

    # Variable-length: naive scan, MC index (Alg 4), semi-independent
    # approximation (Alg 5).
    print(f"\nquery: {ENTERED_ROOM_KLEENE}")
    for method in ("naive", "mc", "semi"):
        result = db.query("bob", ENTERED_ROOM_KLEENE, method=method)
        t, p = result.peak()
        print(f"  {method:>6}: peak p={p:.3f} at t={t} "
              f"({result.stats.summary()})")
