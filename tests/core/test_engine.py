"""Caldera entry points documented in docs/QUERY_LANGUAGE.md:
``build_conditioned_mc`` on an already-archived stream,
``query_all``'s fan-out over every archived stream, and
``register_dimension_table(replace=True)`` under join indexes."""

import pytest
from candidates import assert_fewest

from repro.core import Caldera
from repro.errors import CatalogError, PlanningError
from repro.streams import ENTERED_ROOM_QUERY, synthetic_stream

CONDITIONED_QUERY = "location=Door -> (location=C1)* location=Room"


def _stream(name: str = "syn", seed: int = 29):
    return synthetic_stream(name, num_snippets=8, density=0.4,
                            match_rate=0.5, seed=seed)


def _loop(db: Caldera):
    query = db.parse(CONDITIONED_QUERY)
    return next(link.loop for link in query.links if link.has_positive_loop)


def test_build_conditioned_mc_matches_archive_time_build(tmp_path):
    """Building the conditioned MC index after archiving records it in
    the catalog (surviving a reopen) and answers exactly like the index
    built by ``archive(conditioned_predicates=[...])``."""
    with Caldera(str(tmp_path / "upfront")) as db:
        db.archive(_stream(), mc_alpha=2,
                   conditioned_predicates=[_loop(db)])
        upfront = db.query("syn", CONDITIONED_QUERY, method="mc",
                           use_conditioned=True).signal
    assert upfront, "conditioned mode emitted nothing"

    later_path = str(tmp_path / "later")
    with Caldera(later_path) as db:
        db.archive(_stream(), mc_alpha=2)
        loop = _loop(db)
        key = f"mcc:{loop.signature()}"
        assert key not in db.stream_meta("syn").indexes
        db.build_conditioned_mc("syn", loop)
        assert db.stream_meta("syn").indexes[key] == {"alpha": 2}

    with Caldera(later_path) as db:
        assert db.stream_meta("syn").indexes[key] == {"alpha": 2}
        later = db.query("syn", CONDITIONED_QUERY, method="mc",
                         use_conditioned=True).signal
    assert [t for t, _ in later] == [t for t, _ in upfront]
    for (_, p), (_, q) in zip(later, upfront):
        assert p == pytest.approx(q, abs=1e-12)


def test_query_all_fans_out_per_stream(tmp_path):
    with Caldera(str(tmp_path)) as db:
        for name, seed in (("a", 3), ("b", 4)):
            db.archive(_stream(name, seed), layout="packed")
        results = db.query_all(ENTERED_ROOM_QUERY, method="naive")
        assert sorted(results) == ["a", "b"]
        for name, result in results.items():
            alone = db.query(name, ENTERED_ROOM_QUERY, method="naive")
            assert result.signal == alone.signal
        only_b = db.query_all(ENTERED_ROOM_QUERY, streams=["b"], k=2)
        assert list(only_b) == ["b"]
        assert only_b["b"].signal == db.query("b", ENTERED_ROOM_QUERY,
                                              k=2).signal


TWO_LOOP_QUERY = ("location=Door -> (location=C1)* location=Room "
                  "-> (location=Room)* location=Door")


def test_conditioned_auto_query_with_two_loops_runs_exact_mc(tmp_path):
    """Conditioned skipping covers exactly one positive loop. With two
    loops (both conditioned indexes built) the conditioned candidate is
    illegal, so the planner weighs exact MC against the scan; here exact
    MC reads fewer pages, runs, and agrees with the naive scan. Asking
    for conditioned mode explicitly is refused."""
    with Caldera(str(tmp_path)) as db:
        query = db.parse(TWO_LOOP_QUERY)
        loops = [link.loop for link in query.links if link.has_positive_loop]
        assert len(loops) == 2
        db.archive(_stream(), mc_alpha=2, conditioned_predicates=loops)
        naive = db.query("syn", TWO_LOOP_QUERY, method="naive").signal
        decision = db.explain("syn", TWO_LOOP_QUERY, use_conditioned=True)
        illegal = {c.label: c.illegal for c in decision.candidates}
        assert "exactly one positive" in illegal["mc conditioned"]
        assert assert_fewest(db, "syn", TWO_LOOP_QUERY,
                             use_conditioned=True)[0] == "mc"
        auto = db.query("syn", TWO_LOOP_QUERY, use_conditioned=True)
        assert auto.method == "mc"
        assert_signals_agree(dict(naive), auto.signal)
        with pytest.raises(PlanningError, match="exactly one positive"):
            db.query("syn", TWO_LOOP_QUERY, method="mc",
                     use_conditioned=True)


@pytest.mark.parametrize("name", ["a__x", "a_", ""])
def test_stream_names_cannot_overlap_tree_prefixes(tmp_path, name):
    """Tree names are ``<stream>__<suffix>``: a stream name that contains
    ``__``, ends in ``_`` or is empty would let dropping one stream
    delete another stream's (or the catalog's) trees."""
    with Caldera(str(tmp_path)) as db:
        db.archive(_stream("a"), layout="packed")
        with pytest.raises(CatalogError, match="stream name"):
            db.archive(_stream(name), layout="packed")
        db.archive(_stream("b"), layout="packed")
        db.drop_stream("a")
        assert db.stream_names() == ["b"]
        assert db.query("b", ENTERED_ROOM_QUERY, method="btree").signal


KIND = {"Door": "entry", "Room": "space"}
JOIN_QUERY = "dim(location,Kind)=entry -> location=Room"


def test_replacing_a_joined_dimension_table_is_refused(tmp_path):
    """A join index stores masses summed, and value codes numbered,
    under the table it was built from; changing the table under it would
    make the planner's index-based answer silently wrong."""
    with Caldera(str(tmp_path / "db")) as db:
        db.register_dimension_table("Kind", KIND)
        db.archive(synthetic_stream("syn", num_snippets=20),
                   join_tables=("Kind",))
        db.register_dimension_table("Other", {"Door": "x"})
        db.archive(synthetic_stream("plain", num_snippets=2))
        naive = db.query("syn", JOIN_QUERY, method="naive").signal
        # The join index serves the query, and reads the fewest pages.
        assert assert_fewest(db, "syn", JOIN_QUERY)[0] == "btree"
        with pytest.raises(CatalogError, match=r"'Kind'.*stream\(s\) syn;"):
            db.register_dimension_table("Kind", {**KIND, "Lobby": "aaa"},
                                        replace=True)
        # An unchanged mapping, or a table no index reads, may be replaced.
        db.register_dimension_table("Kind", dict(reversed(KIND.items())),
                                    replace=True)
        db.register_dimension_table("Other", {"Door": "y"}, replace=True)
        assert db.dimension_tables()["Kind"] == KIND
        btree = db.query("syn", JOIN_QUERY).signal
        assert_signals_agree(dict(naive), btree)


def assert_signals_agree(exact, other):
    assert other
    for t, p in other:
        assert exact.get(t, 0.0) == pytest.approx(p, abs=1e-9)
    emitted = {t for t, _ in other}
    assert all(t in emitted for t, p in exact.items() if p > 1e-12)
