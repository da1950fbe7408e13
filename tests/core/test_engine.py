"""Caldera entry points documented in docs/QUERY_LANGUAGE.md:
``build_conditioned_mc`` on an already-archived stream, and
``query_all``'s fan-out over every archived stream."""

import pytest

from repro.core import Caldera
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
