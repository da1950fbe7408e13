"""Figure 8(b): fixed-length access methods on "real" (routine) data.

The Entered-Room query against one routine stream, run by the naive
scan, the B+Tree method and the top-k B+Tree method with k=1, at the
query's measured data density. The paper plots 22 room queries of a
352-location building; the synthetic routine world has one target
room, so this figure has one query.
"""

from __future__ import annotations

import pytest

from .harness import measure, print_table, save_report
from .workloads import ENTERED_ROOM_QUERY, TARGET_ROOM, routines_db

STREAM = "person0"
METHODS = (("naive", {}), ("btree", {}), ("topk", {"k": 1}))


def generate():
    db = routines_db()
    try:
        density = db.data_density(STREAM, ENTERED_ROOM_QUERY)
        rows = []
        for method, kwargs in METHODS:
            m = measure(db, STREAM, ENTERED_ROOM_QUERY, method, method,
                        repeats=1, **kwargs)
            rows.append({
                "room": TARGET_ROOM,
                "density": round(density, 4),
                "method": method,
                "wall_ms": round(m.wall_ms, 2),
                "physical_reads": m.physical_reads,
            })
        text_out = print_table(
            "Figure 8(b): the Entered-Room query on a routine stream",
            rows,
            columns=["room", "density", "method", "wall_ms", "physical_reads"],
        )
        save_report("fig8b", text_out, {"rows": rows})
        return rows
    finally:
        db.close()


@pytest.fixture(scope="module")
def db():
    database = routines_db()
    yield database
    database.close()


@pytest.mark.parametrize("method,kwargs", METHODS)
def test_fig8b_entered_room_query(benchmark, db, method, kwargs):
    benchmark.pedantic(
        lambda: db.query(STREAM, ENTERED_ROOM_QUERY, method=method,
                         cold=True, **kwargs),
        rounds=3, iterations=1,
    )


def test_fig8b_shape_btree_beats_naive_at_low_density(db):
    naive = measure(db, STREAM, ENTERED_ROOM_QUERY, "naive", "n", repeats=1)
    btree = measure(db, STREAM, ENTERED_ROOM_QUERY, "btree", "b", repeats=1)
    assert btree.wall_ms < naive.wall_ms


if __name__ == "__main__":
    generate()
