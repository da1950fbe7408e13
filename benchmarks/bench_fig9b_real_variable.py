"""Figure 9(b): variable-length access methods on "real" (routine) data.

The Kleene form of Figure 8(b)'s Entered-Room query on the same routine
stream (directly comparable: the naive scan costs the same in both
figures), run by the naive scan, the MC index and the semi-independent
method.
"""

from __future__ import annotations

import pytest

from .harness import measure, print_table, save_report
from .workloads import ENTERED_ROOM_KLEENE, TARGET_ROOM, routines_db

STREAM = "person0"
METHODS = ("naive", "mc", "semi")


def generate():
    db = routines_db(mc_alpha=2)
    try:
        density = db.data_density(STREAM, ENTERED_ROOM_KLEENE)
        rows = []
        for method in METHODS:
            m = measure(db, STREAM, ENTERED_ROOM_KLEENE, method, method,
                        repeats=1)
            rows.append({
                "room": TARGET_ROOM,
                "density": round(density, 4),
                "method": method,
                "wall_ms": round(m.wall_ms, 2),
                "physical_reads": m.physical_reads,
            })
        text_out = print_table(
            "Figure 9(b): the Kleene Entered-Room query on a routine stream",
            rows,
            columns=["room", "density", "method", "wall_ms", "physical_reads"],
        )
        save_report("fig9b", text_out, {"rows": rows})
        return rows
    finally:
        db.close()


@pytest.fixture(scope="module")
def db():
    database = routines_db(mc_alpha=2)
    yield database
    database.close()


@pytest.mark.parametrize("method", METHODS)
def test_fig9b_kleene_query(benchmark, db, method):
    benchmark.pedantic(
        lambda: db.query(STREAM, ENTERED_ROOM_KLEENE, method=method,
                         cold=True),
        rounds=3, iterations=1,
    )


def test_fig9b_shape_mc_beats_scan(db):
    naive = measure(db, STREAM, ENTERED_ROOM_KLEENE, "naive", "n", repeats=1)
    mc = measure(db, STREAM, ENTERED_ROOM_KLEENE, "mc", "m", repeats=1)
    assert mc.wall_ms < naive.wall_ms


def test_fig9b_mc_matches_naive_signal(db):
    """Correctness on real data: the MC method's emitted probabilities
    equal the naive scan's at every emitted timestep."""
    naive = db.query(STREAM, ENTERED_ROOM_KLEENE, method="naive").as_dict()
    mc = db.query(STREAM, ENTERED_ROOM_KLEENE, method="mc").as_dict()
    for t, p in mc.items():
        assert abs(p - naive[t]) < 1e-6


if __name__ == "__main__":
    generate()
