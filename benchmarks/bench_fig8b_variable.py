"""Figure 8(b): the variable-length cost curve — MC index vs naive scan.

The paper's headline experiment for Algorithm 4: a Kleene
(variable-length) Entered-Room query over a *sparse* synthetic stream,
answered by the naive scan and by the MC-index method at
alpha in {2, 4, 8}. Two views are measured:

1. **query level** — end-to-end logical page reads of the full query
   per (method, alpha): the MC method touches the relevant events plus
   O(log gap) span records per gap, the scan touches every timestep;
2. **span level** — the cost of covering a single ``[start,
   start+g)`` gap for an exponential ladder of gap lengths ``g``:
   pieces composed and logical page reads through the index vs a
   scan's read of the ``g`` CPTs as one run (a descent, then a page
   per leaf) — the log-vs-linear scaling picture, in pieces applied
   against steps walked; in pages, a run read is cheaper still.

The run writes ``results/fig8b.manifest.json`` whose registry holds
only deterministic counters (``cost.logical_reads``, ``mc.lookups``,
``mc.pieces``, ``cost.reg_updates``) — CI diffs it against the
committed baseline with ``repro.obs.report --fail-on-change``; wall
times are reported in the table but never gate.
"""

from __future__ import annotations

import pytest

from repro.indexes import MCLookupStats, open_mc
from repro.obs import MetricsRegistry
from repro.streams import Layout

from .harness import finish_run, measure, print_table, save_report, start_run
from .workloads import ENTERED_ROOM_KLEENE, synthetic_db

ALPHAS = (2, 4, 8)
#: Sparse workload: long irrelevant stretches between relevant events.
DENSITY = 0.05
#: Exponential gap ladder, capped below the default stream length.
GAPS = (4, 16, 64, 256, 1024, 2048)
#: Unaligned gap start: exercises both sides of the greedy descent.
GAP_START = 37


def _db(alpha, num_snippets=None):
    return synthetic_db(density=DENSITY, match_rate=1.0,
                        layouts=(Layout.SEPARATED,), mc_alpha=alpha,
                        num_snippets=num_snippets)


def _span_rows(db, alpha, registry):
    """The span-level ladder: one row per gap length."""
    reader = db.reader("syn_separated")
    mc = open_mc(db.env, "syn_separated", alpha=alpha,
                 length=reader.length)
    rows = []
    for gap in GAPS:
        end = GAP_START + gap
        if end > reader.length - 1:
            continue
        stats = MCLookupStats()
        # Deltas, not resets: the enclosing span deltas the same
        # monotonic counters.
        before = db.env.stats.snapshot()
        mc.compute_cpt(GAP_START, end, reader, stats=stats)
        mc_reads = db.env.stats.delta(before).logical_reads
        before = db.env.stats.snapshot()
        reader.scan_cpts(GAP_START + 1, end + 1)  # as Alg 1 reads a run
        scan_reads = db.env.stats.delta(before).logical_reads
        labels = {"alpha": alpha, "gap": gap}
        registry.counter("mc.lookups", **labels).inc(stats.lookups)
        registry.counter("mc.pieces", **labels).inc(stats.pieces)
        registry.counter("cost.logical_reads", kind="span",
                         **labels).inc(mc_reads)
        if alpha == ALPHAS[0]:
            # The scan baseline is alpha-independent: record it once.
            registry.counter("cost.logical_reads", kind="scan",
                             gap=gap).inc(scan_reads)
        rows.append({
            "alpha": alpha,
            "gap": gap,
            "pieces": stats.pieces,
            "mc_lookups": stats.lookups,
            "base_cpts": stats.base_cpts_read,
            "mc_logical_reads": mc_reads,
            "scan_logical_reads": scan_reads,
        })
    return rows


def generate(num_snippets=None):
    """The full Figure 8(b) series."""
    registry = MetricsRegistry()
    manifest, tracer = start_run(
        "fig8b",
        config={
            "alphas": list(ALPHAS),
            "density": DENSITY,
            "gaps": list(GAPS),
            "gap_start": GAP_START,
            "num_snippets": num_snippets,
            "query": ENTERED_ROOM_KLEENE,
        },
    )
    query_rows = []
    span_rows = []
    for alpha in ALPHAS:
        db = _db(alpha, num_snippets)
        try:
            for method in ("naive", "mc"):
                label = f"{method}/alpha={alpha}"
                with tracer.span(label, io=db.stats):
                    m = measure(db, "syn_separated", ENTERED_ROOM_KLEENE,
                                method, label)
                labels = {"method": method, "alpha": alpha}
                registry.counter("cost.logical_reads", kind="query",
                                 **labels).inc(m.logical_reads)
                registry.counter("cost.reg_updates",
                                 **labels).inc(m.extra["reg_updates"])
                if method == "mc":
                    registry.counter("mc.lookups", kind="query",
                                     alpha=alpha).inc(
                                         m.extra["mc_lookups"])
                query_rows.append({
                    "alpha": alpha,
                    "method": method,
                    "wall_ms": round(m.wall_ms, 2),
                    "logical_reads": m.logical_reads,
                    "physical_reads": m.physical_reads,
                    "reg_updates": m.extra["reg_updates"],
                    "mc_lookups": m.extra["mc_lookups"],
                })
            with tracer.span(f"spans/alpha={alpha}", io=db.stats):
                span_rows.extend(_span_rows(db, alpha, registry))
        finally:
            db.close()
    text = print_table(
        "Figure 8(b): variable-length query — MC index vs naive scan",
        query_rows,
        columns=["alpha", "method", "wall_ms", "logical_reads",
                 "physical_reads", "reg_updates", "mc_lookups"],
    )
    text += print_table(
        "Figure 8(b) inset: single-gap cost vs gap length",
        span_rows,
        columns=["alpha", "gap", "pieces", "mc_lookups", "base_cpts",
                 "mc_logical_reads", "scan_logical_reads"],
    )
    # "fig8b_variable" keeps clear of bench_fig8b_real_fixed's report
    # files; the run manifest (results/fig8b.manifest.json) is this
    # benchmark's alone.
    save_report("fig8b_variable", text,
                {"query_rows": query_rows, "span_rows": span_rows})
    finish_run(manifest, tracer, registry,
               extra={"query_rows": query_rows, "span_rows": span_rows})
    return query_rows, span_rows


@pytest.fixture(scope="module")
def sparse_db():
    db = _db(2)
    yield db
    db.close()


def test_fig8b_shape_mc_beats_naive_reads(sparse_db):
    """Reproduction criterion: on the sparse workload the MC method
    costs strictly fewer logical page reads than the naive scan."""
    db = sparse_db
    naive = measure(db, "syn_separated", ENTERED_ROOM_KLEENE, "naive",
                    "n", repeats=1)
    mc = measure(db, "syn_separated", ENTERED_ROOM_KLEENE, "mc", "m",
                 repeats=1)
    assert mc.logical_reads < naive.logical_reads
    assert mc.logical_reads * 2 < naive.logical_reads


def test_fig8b_shape_lookups_scale_logarithmically(sparse_db):
    """Quadrupling the gap adds a bounded number of pieces — the
    log-vs-linear separation of the inset."""
    db = sparse_db
    reader = db.reader("syn_separated")
    mc = open_mc(db.env, "syn_separated", alpha=2, length=reader.length)
    pieces = []
    for gap in GAPS:
        if GAP_START + gap > reader.length - 1:
            break
        stats = MCLookupStats()
        mc.compute_cpt(GAP_START, GAP_START + gap, reader, stats=stats)
        pieces.append(stats.pieces)
    assert len(pieces) >= 4
    for prev, nxt in zip(pieces, pieces[1:]):
        assert nxt <= prev + 4  # 2*(alpha-1) per doubling, x2 rungs
    assert pieces[-1] < GAPS[len(pieces) - 1] // 8


if __name__ == "__main__":
    generate()
