"""The cost-based planner: it runs the legal candidate with the fewest
predicted page reads, predicts from statistics the catalog records at
archive time, and reports its candidate table and prediction error."""

import pytest
from candidates import forced_reads

from repro.core import Caldera
from repro.indexes import ValueStats
from repro.streams import ENTERED_ROOM_QUERY, synthetic_stream

KLEENE = "location=Door -> (!location=Room)* location=Room"
DENSITIES = (0.05, 0.2, 0.5, 1.0)
LAYOUTS = ("separated", "packed")


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """One database per density, each stream archived in both layouts
    with BT_C, BT_P and the MC index."""
    dbs = {}
    for density in DENSITIES:
        db = Caldera(str(tmp_path_factory.mktemp(f"d{density}")))
        stream = synthetic_stream("syn", num_snippets=20, density=density,
                                  match_rate=0.5, seed=1)
        for layout in LAYOUTS:
            stream.name = f"syn_{layout}"
            db.archive(stream, layout=layout, mc_alpha=2)
        dbs[density] = db
    yield dbs
    for db in dbs.values():
        db.close()


@pytest.mark.parametrize("density", DENSITIES)
def test_auto_reads_near_the_fewest_on_the_density_grid(grid, density):
    """§4.2–4.3's crossover: the index methods win on sparse data and
    fall to scan cost on dense data. On every cell, auto's reads (its
    probe included) are within 10% of the fewest any legal candidate
    reads when pinned."""
    db = grid[density]
    for layout in LAYOUTS:
        stream = f"syn_{layout}"
        for text, kwargs in ((ENTERED_ROOM_QUERY, {}),
                             (ENTERED_ROOM_QUERY, {"k": 3}), (KLEENE, {})):
            _, reads = forced_reads(db, stream, text, **kwargs)
            auto = db.query(stream, text, **kwargs).stats.io.logical_reads
            assert auto <= 1.10 * min(reads.values()), \
                (layout, text, kwargs, auto, reads)


def test_dense_data_plans_the_scan_without_probing(grid):
    """At density 1.0 the statistics alone show every index method
    reading at least a scan's pages: naive (plus Sort) is chosen and no
    cursor is read."""
    db = grid[1.0]
    for layout in LAYOUTS:
        for text, kwargs in ((ENTERED_ROOM_QUERY, {}),
                             (ENTERED_ROOM_QUERY, {"k": 3}), (KLEENE, {})):
            decision = db.explain(f"syn_{layout}", text, **kwargs)
            assert decision.name == "naive"
            assert decision.probe_reads == 0
            assert not any(c.probed for c in decision.candidates)


def test_probed_predictions_are_exact_and_reads_are_not_repeated(grid):
    """A probed candidate's prediction equals its actual reads, and the
    chosen method reuses the probe's events: auto reads exactly what the
    pinned method reads."""
    db = grid[0.05]
    for layout in LAYOUTS:
        stream = f"syn_{layout}"
        decision, reads = forced_reads(db, stream, KLEENE)
        chosen = next(c for c in decision.candidates
                      if c.method is decision.method)
        assert chosen.probed and chosen.label == "mc"
        assert chosen.high == reads["mc"]
        assert db.query(stream, KLEENE).stats.io.logical_reads == reads["mc"]


def test_cost_error_histogram_counts_auto_runs_only(tmp_path):
    db = Caldera(str(tmp_path))
    db.archive(synthetic_stream("syn", num_snippets=20, density=0.05,
                                match_rate=0.5, seed=1),
               layout="packed", mc_alpha=2)
    db.query("syn", KLEENE, method="mc")
    assert not [k for k in db.env.metrics.snapshot()["histograms"]
                if k.startswith("planner.cost_error")]
    db.query("syn", KLEENE)
    db.query("syn", ENTERED_ROOM_QUERY)
    histograms = db.env.metrics.snapshot()["histograms"]
    db.close()
    assert histograms["planner.cost_error{method=mc}"]["count"] == 1
    assert histograms["planner.cost_error{method=btree}"]["count"] == 1
    # A probed prediction is exact.
    assert histograms["planner.cost_error{method=mc}"]["max"] == 1.0


def test_candidate_table_lists_every_candidate(grid):
    decision = grid[0.2].explain("syn_separated", KLEENE, k=3,
                                 use_conditioned=True, approximate=True)
    labels = [c.label for c in decision.candidates]
    # No positive loop: conditioned mode would be exact MC again.
    assert labels == ["naive + Sort", "mc + Sort", "semi + Sort"]
    rows = decision.table().splitlines()
    assert len(rows) == 3 and sum(r.startswith("* ") for r in rows) == 1
    fixed = grid[0.2].explain("syn_separated", ENTERED_ROOM_QUERY)
    assert [c.label for c in fixed.candidates] == ["naive", "btree"]


def test_statistics_are_recorded_at_archive_time(grid):
    """The catalog's per-value counts equal a count from the BT_C
    leaves, in both layouts (frames count pack-aligned blocks)."""
    db = grid[0.2]
    for layout in LAYOUTS:
        ctx = db.context(f"syn_{layout}", ENTERED_ROOM_QUERY)
        for kind in ("btc", "btp"):
            index = ctx.indexes[kind]["location"]
            assert index.stats == ValueStats.scan(index, ctx.reader.pack)
        stats = ctx.indexes["btc"]["location"].stats
        if layout == "separated":
            assert stats.frames == stats.entries
        else:
            assert stats.frames != stats.entries


def test_older_archives_derive_statistics_once(tmp_path):
    """A catalog entry written without the statistics gets them counted
    from the leaves on first use, and recorded: planning is unchanged."""
    path = str(tmp_path / "db")
    stream = synthetic_stream("syn", num_snippets=6, density=0.3, seed=3)
    with Caldera(path) as db:
        db.archive(stream, layout="packed", mc_alpha=2)
        want = db.explain("syn", KLEENE).table()
        recorded = db.stream_meta("syn").indexes
        meta = db.stream_meta("syn")
        for key in ("btc:location", "btp:location"):
            meta.indexes[key] = {}
        db.catalog.update_stream(meta)
    with Caldera(path) as db:
        assert db.explain("syn", KLEENE).table() == want
        assert db.stream_meta("syn").indexes == recorded
