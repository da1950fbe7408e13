"""Figure 4: the Entered-Room query signal on a routine stream.

Reproduces the paper's motivating plot: the query probability over time
for an Entered-Room query on a routine stream — a dominant peak when the
person actually enters the room, and (possibly) lower false-positive
bumps when they merely walk past the door. Applications threshold this
signal (e.g., p > 0.3) to detect events.

The run writes ``results/fig4.manifest.json`` with one span per access
method (wall time + logical/physical page-read deltas) and the signal's
nonzero points in the report JSON.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry

from .harness import finish_run, measure, print_table, save_report, start_run
from .workloads import ENTERED_ROOM_QUERY, TARGET_ROOM, routines_db

STREAM = "person0"


def generate():
    registry = MetricsRegistry()
    manifest, tracer = start_run("fig4", config={"stream": STREAM})
    db = routines_db()
    try:
        for method in ("naive", "btree"):
            with tracer.span(f"query/{method}", io=db.stats):
                m = measure(db, STREAM, ENTERED_ROOM_QUERY, method, method)
            registry.counter("cost.logical_reads",
                             method=method).inc(m.logical_reads)
            registry.counter("cost.reg_updates",
                             method=method).inc(m.extra["reg_updates"])
        result = db.query(STREAM, ENTERED_ROOM_QUERY, method="btree")
        signal = result.as_dict()
        rows = []
        peak = result.peak()
        for t, p in sorted(signal.items()):
            if p > 1e-4:
                rows.append({"t": t, "p": round(p, 4),
                             "is_peak": t == (peak[0] if peak else None)})
        header = [
            {"room": TARGET_ROOM, "signal_points": len(result.signal),
             "nonzero_points": len(rows),
             "peak_t": peak[0] if peak else None,
             "peak_p": round(peak[1], 4) if peak else None},
        ]
        text_out = print_table("Figure 4: query metadata", header)
        text_out += print_table(
            f"Figure 4: Entered-{TARGET_ROOM} signal (nonzero points)", rows,
            columns=["t", "p", "is_peak"],
        )
        save_report("fig4", text_out, {"rows": rows, "meta": header[0]})
        finish_run(manifest, tracer, registry, extra={"meta": header[0]})
        return rows
    finally:
        db.close()


@pytest.fixture(scope="module")
def db():
    database = routines_db()
    yield database
    database.close()


def test_fig4_signal_query(benchmark, db):
    benchmark.pedantic(
        lambda: db.query(STREAM, ENTERED_ROOM_QUERY, method="btree",
                         cold=True),
        rounds=3, iterations=1,
    )


def test_fig4_shape_peak_dominates(db):
    """The signal has a clear dominant peak (thresholdable, §2.2)."""
    result = db.query(STREAM, ENTERED_ROOM_QUERY, method="btree")
    probs = sorted((p for _, p in result.signal), reverse=True)
    assert probs, "the query matched nowhere"
    assert probs[0] > 0.01


def test_fig4_naive_and_btree_agree(db):
    """Alg 1 and Alg 2 compute the same signal on emitted timesteps."""
    naive = dict(db.query(STREAM, ENTERED_ROOM_QUERY, method="naive").signal)
    btree = db.query(STREAM, ENTERED_ROOM_QUERY, method="btree").signal
    for t, p in btree:
        assert abs(naive.get(t, 0.0) - p) < 1e-9


if __name__ == "__main__":
    generate()
