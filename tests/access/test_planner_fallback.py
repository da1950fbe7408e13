"""Fallback decisions must be observable: whenever no exact index
method can serve a query for want of an index, the planner bumps
``planner.fallbacks{reason=...}`` and emits a ``planner.fallback``
warning span on the environment's tracer — a silent full scan is a perf
bug waiting to be missed. Choosing the scan because it reads fewer
pages is not a fallback."""

import pytest
from candidates import assert_cheapest

from repro.core import Caldera
from repro.streams import synthetic_stream

KLEENE = "location=Door -> (!location=Room)* location=Room"
FIXED = "location=Door -> location=Room"


@pytest.fixture()
def db(tmp_path):
    with Caldera(str(tmp_path)) as database:
        yield database


def fallback_counters(db):
    counters = db.env.metrics.snapshot()["counters"]
    return {k: v for k, v in counters.items()
            if k.startswith("planner.fallbacks")}


def archive(db, name, seed, **kwargs):
    stream = synthetic_stream(name, num_snippets=3, density=0.5,
                              match_rate=0.5, seed=seed)
    db.archive(stream, layout="separated", **kwargs)


def test_variable_query_without_mc_index_counts_fallback(db):
    archive(db, "s", 5, mc_alpha=None)
    assert fallback_counters(db) == {}
    db.query("s", KLEENE, method="auto")
    assert fallback_counters(db) == {
        "planner.fallbacks{reason=no_mc_index}": 1
    }
    decision = db.explain("s", KLEENE)
    assert decision.name == "naive"
    assert fallback_counters(db) == {
        "planner.fallbacks{reason=no_mc_index}": 2
    }


def test_approximate_fallback_is_counted_too(db):
    """Falling back to semi-independent is still a fallback — the user
    asked for a variable-length query the MC index should serve."""
    archive(db, "s", 5, mc_alpha=None)
    decision = db.explain("s", KLEENE, approximate=True)
    assert decision.name == "semi"
    assert fallback_counters(db) == {
        "planner.fallbacks{reason=no_mc_index}": 1
    }


def test_missing_btc_coverage_counts_fallback(db):
    archive(db, "s", 5, btc=False, btp=False, mc_alpha=None)
    db.query("s", KLEENE, method="auto")
    db.query("s", FIXED, method="auto")
    assert fallback_counters(db) == {
        "planner.fallbacks{reason=no_btc_coverage}": 2
    }


def test_planned_queries_do_not_count_fallbacks(db):
    """With every index built, the index methods are legal, so nothing
    is a fallback; on this sparse-enough stream they also cost the
    least (reads plus timesteps walked), so the planner runs them."""
    archive(db, "s", 5, mc_alpha=2)
    assert assert_cheapest(db, "s", KLEENE)[0] == "mc"
    assert assert_cheapest(db, "s", FIXED)[0] == "btree"
    db.query("s", KLEENE, method="auto")
    db.query("s", FIXED, method="auto")
    assert fallback_counters(db) == {}


def test_choosing_naive_on_cost_is_not_a_fallback(db):
    """On a density-1.0 stream the index methods walk every timestep
    and read more pages than the scan: the planner picks naive, and
    counts no fallback because the indexes are there."""
    stream = synthetic_stream("dense", num_snippets=4, density=1.0,
                              match_rate=0.5, seed=5)
    db.archive(stream, layout="separated", mc_alpha=2)
    for text, kwargs in ((KLEENE, {}), (FIXED, {}), (FIXED, {"k": 3})):
        chosen, reads = assert_cheapest(db, "dense", text, **kwargs)
        assert chosen.startswith("naive"), reads
        assert db.query("dense", text, **kwargs).method == "naive"
    assert fallback_counters(db) == {}


def test_fallback_emits_warning_span(db):
    archive(db, "s", 5, mc_alpha=None)
    db.query("s", KLEENE, method="auto")
    histograms = db.env.metrics.snapshot()["histograms"]
    assert any(k.startswith("span.planner.fallback.ms")
               for k in histograms), histograms


def test_explicit_method_pins_bypass_the_planner(db):
    """method= pins are deliberate; only auto-planning counts."""
    archive(db, "s", 5, mc_alpha=None)
    db.query("s", KLEENE, method="naive")
    assert fallback_counters(db) == {}
