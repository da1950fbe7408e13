"""Planner regression guard: auto's choice and reads against every
legal candidate, on perfbench-shaped query mixes.

Two synthetic workloads mirror perfbench's query workloads on shorter
streams (seed 1, match rate 0.5, both layouts, MC index with α = 2):

- ``dense``: density 1.0, where every index method reads at least a
  scan's pages (§4.2–4.3's crossover);
- ``sparse``: density 0.05, plus a conditioned MC index on ``C1``,
  where the index methods skip most of the stream.

Each op — Entered-Room, its top-3, the Kleene query, the conditioned
query (``use_conditioned``), the Kleene query with ``approximate`` (on
the same stream, so the MC method stays a candidate), and two more
fixed-length queries for Alg 2's multi-link join (three links, and two
links of very different entry counts) — runs under ``auto`` and under
every legal candidate of the planner's table, pinned.

The run manifest (``results/planner.manifest.json``) holds only
deterministic counters, per op: ``planner.choice{...,method=...}``,
``planner.predicted`` (the chosen candidate's predicted reads) and
``cost.logical_reads{...,run=...}`` for auto and each candidate. CI
diffs it against ``baselines/planner.manifest.json`` with
``--fail-on-change``. CPU times (min of ``REPEATS`` runs) are reported
but never gate.
"""

from __future__ import annotations

import time

from repro.obs import MetricsRegistry
from repro.streams import Layout

from .harness import finish_run, print_table, save_report, start_run
from .workloads import ENTERED_ROOM_KLEENE, ENTERED_ROOM_QUERY, synthetic_db

CONDITIONED_QUERY = "location=Door -> (location=C1)* location=Room"
#: (name, density, snippets of 30 steps): perfbench's scan_dense and
#: index_sparse at a quarter and a fifth of their lengths.
WORKLOADS = (("dense", 1.0, 25), ("sparse", 0.05, 80))
LAYOUTS = (Layout.SEPARATED, Layout.PACKED)
OPS = (
    ("entered-room", ENTERED_ROOM_QUERY, {}),
    ("top-3", ENTERED_ROOM_QUERY, {"k": 3}),
    ("kleene", ENTERED_ROOM_KLEENE, {}),
    ("conditioned", CONDITIONED_QUERY, {"use_conditioned": True}),
    ("semi", ENTERED_ROOM_KLEENE, {"approximate": True}),
    ("three-link", "location=C1 -> location=Door -> location=Room", {}),
    ("skewed", "location=C1 -> location=Room", {}),
)
REPEATS = 3


def _timed(run):
    """``run()``'s last result and its least CPU time in ms."""
    best = None
    for _ in range(REPEATS):
        t0 = time.process_time()
        result = run()
        elapsed = time.process_time() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best * 1000.0


def _op_rows(db, stream, op, text, kwargs, registry, labels):
    decision = db.explain(stream, text, **kwargs)
    chosen = next(c for c in decision.candidates
                  if c.method is decision.method)
    registry.counter("planner.choice", method=chosen.label,
                     **labels).inc()
    registry.counter("planner.predicted", **labels).inc(decision.predicted)
    auto, auto_ms = _timed(lambda: db.query(stream, text, **kwargs))
    rows = [{**labels, "run": "auto", "method": chosen.label,
             "predicted": decision.predicted,
             "logical_reads": auto.stats.io.logical_reads,
             "cpu_ms": round(auto_ms, 2)}]
    sort = {key: kwargs[key] for key in ("k", "threshold") if key in kwargs}
    for c in decision.candidates:
        if c.illegal is not None:
            continue
        pinned = dict(sort, use_conditioned=getattr(
            c.method, "use_conditioned", False))
        result, ms = _timed(lambda: db.query(stream, text,
                                             method=c.method.name, **pinned))
        rows.append({**labels, "run": c.label, "method": c.label,
                     "predicted": c.high,
                     "logical_reads": result.stats.io.logical_reads,
                     "cpu_ms": round(ms, 2)})
    for row in rows:
        registry.counter("cost.logical_reads", run=row["run"],
                         **labels).inc(row["logical_reads"])
    return rows


def generate():
    registry = MetricsRegistry()
    manifest, tracer = start_run("planner", config={
        "workloads": [list(w) for w in WORKLOADS],
        "layouts": [layout.value for layout in LAYOUTS],
        "ops": [[op, text, kwargs] for op, text, kwargs in OPS],
        "repeats": REPEATS,
    })
    rows = []
    for name, density, snippets in WORKLOADS:
        db = synthetic_db(density=density, match_rate=0.5,
                          num_snippets=snippets, layouts=LAYOUTS, seed=1,
                          mc_alpha=2, conditioned_query=CONDITIONED_QUERY)
        try:
            for layout in LAYOUTS:
                stream = f"syn_{layout.value}"
                for op, text, kwargs in OPS:
                    labels = {"workload": name, "layout": layout.value,
                              "op": op}
                    with tracer.span(f"{name}/{layout.value}/{op}",
                                     io=db.stats):
                        rows.extend(_op_rows(db, stream, op, text, kwargs,
                                             registry, labels))
        finally:
            db.close()
    text = print_table(
        "Planner: auto vs every legal candidate (CPU: min of "
        f"{REPEATS}, information only)", rows,
        columns=["workload", "layout", "op", "run", "method", "predicted",
                 "logical_reads", "cpu_ms"])
    save_report("planner", text, {"rows": rows})
    finish_run(manifest, tracer, registry, extra={"rows": rows})
    return rows


def test_auto_reads_within_ten_percent_of_the_fewest():
    """On every op, auto's reads (its probe included) are within 10% of
    the fewest any legal candidate reads when pinned."""
    rows = generate()
    ops = {}
    for row in rows:
        key = (row["workload"], row["layout"], row["op"])
        ops.setdefault(key, {})[row["run"]] = row["logical_reads"]
    for key, reads in ops.items():
        auto = reads.pop("auto")
        assert auto <= 1.10 * min(reads.values()), (key, auto, reads)


if __name__ == "__main__":
    generate()
