"""Caldera entry points documented in docs/QUERY_LANGUAGE.md:
``build_conditioned_mc`` on an already-archived stream,
``query_all``'s fan-out over every archived stream, and
``register_dimension_table(replace=True)`` under join indexes."""

import os

import pytest
from candidates import assert_cheapest

from repro.core import Caldera
from repro.errors import CatalogError, PlanningError
from repro.indexes import build_mc
from repro.indexes.base import mc_tree_name
from repro.streams import ENTERED_ROOM_QUERY, synthetic_stream
from repro.streams.catalog import CATALOG_TREE

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


@pytest.mark.parametrize("layout", ["separated", "packed"])
def test_archive_reads_no_page(tmp_path, layout):
    """``archive`` builds BT_C, BT_P, the MC index and a conditioned one
    from what it holds in memory, the MC indexes from the CPT records
    it has just encoded: it makes no logical read. Its ``__mc`` trees
    are byte for byte the ones ``build_mc`` builds from the archived
    stream's reader, which reads the records back."""
    root = str(tmp_path)
    with Caldera(root) as db:
        loop = _loop(db)
        before = db.stats.snapshot()
        db.archive(_stream(), layout=layout, btc=True, btp=True, mc_alpha=2,
                   conditioned_predicates=[loop])
        assert db.stats.delta(before).logical_reads == 0
        assert {"btc:location", "btp:location", "mc",
                f"mcc:{loop.signature()}"} <= set(db.stream_meta("syn").indexes)
        reader = db.reader("syn")
        before = db.stats.snapshot()
        for predicate in (None, loop):
            build_mc(db.env, "again", reader, alpha=2, predicate=predicate)
        assert db.stats.delta(before).logical_reads > 0
    signature = loop.signature()
    for archived, rebuilt in ((mc_tree_name("syn"), mc_tree_name("again")),
                              (mc_tree_name("syn", signature),
                               mc_tree_name("again", signature))):
        with open(os.path.join(root, archived + ".btree"), "rb") as a, \
                open(os.path.join(root, rebuilt + ".btree"), "rb") as b:
            assert a.read() == b.read()


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
    illegal, so the planner weighs exact MC against the scan; on this
    sparse stream exact MC costs less (reads plus timesteps walked),
    runs, and agrees with the naive scan. Asking for conditioned mode
    explicitly is refused."""
    with Caldera(str(tmp_path)) as db:
        query = db.parse(TWO_LOOP_QUERY)
        loops = [link.loop for link in query.links if link.has_positive_loop]
        assert len(loops) == 2
        stream = synthetic_stream("syn", num_snippets=8, density=0.1,
                                  match_rate=0.5, seed=29)
        db.archive(stream, mc_alpha=2, conditioned_predicates=loops)
        naive = db.query("syn", TWO_LOOP_QUERY, method="naive").signal
        decision = db.explain("syn", TWO_LOOP_QUERY, use_conditioned=True)
        illegal = {c.label: c.illegal for c in decision.candidates}
        assert "exactly one positive" in illegal["mc conditioned"]
        assert assert_cheapest(db, "syn", TWO_LOOP_QUERY,
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


def test_a_name_too_long_for_the_catalog_writes_nothing(tmp_path):
    """On 512-byte pages a 30-character stream name makes a 40-byte
    catalog key, past the 32-byte limit: archive refuses it before it
    writes a tree, so the name leaves nothing behind and a short name
    archives as usual."""
    long_name = "s" * 30
    with Caldera(str(tmp_path), page_size=512) as db:
        with pytest.raises(CatalogError, match="too long"):
            db.archive(_stream(long_name), mc_alpha=2)
        assert not [tree for tree in db.env.list_trees()
                    if tree.startswith(long_name)]
        db.archive(_stream("short"), mc_alpha=2)
        assert db.stream_names() == ["short"]
        with pytest.raises(CatalogError, match="too long"):
            db.archive(_stream(long_name), mc_alpha=2)


@pytest.mark.parametrize("bad, error", [
    ({"join_tables": ("Nope",)}, CatalogError),
    ({"mc_alpha": 1}, ValueError),
    ({"mc_alpha": 2, "conditioned_predicates": ("location=Room",)},
     TypeError),
])
def test_a_refused_archive_writes_nothing(tmp_path, bad, error):
    """Every argument is checked before the first tree is written: a
    refused archive leaves no tree and no catalog entry, and the same
    stream archives afterwards."""
    with Caldera(str(tmp_path), page_size=512) as db:
        db.register_dimension_table("Kind", KIND)
        with pytest.raises(error):
            db.archive(_stream("s"), **bad)
        assert db.env.list_trees() == [CATALOG_TREE]
        assert db.stream_names() == []
        db.archive(_stream("s"), mc_alpha=2, join_tables=("Kind",))
        assert db.stream_names() == ["s"]


def _stream_trees(db, name="s"):
    return [tree for tree in db.env.list_trees()
            if tree.startswith(name + "__")]


def _assert_exact(db, name="s"):
    """The btree and MC methods agree with the naive scan."""
    for method, text in (("btree", ENTERED_ROOM_QUERY),
                         ("mc", CONDITIONED_QUERY)):
        naive = db.query(name, text, method="naive").signal
        assert_signals_agree(dict(naive),
                             db.query(name, text, method=method).signal)


def test_a_page_too_small_for_btp_keys_writes_nothing(tmp_path):
    """256-byte pages hold keys of at most 24 bytes, and a BT_P key is
    28: archive refuses ``btp=True`` before it writes a tree. Without
    BT_P the stream archives and answers exactly."""
    with Caldera(str(tmp_path), page_size=256) as db:
        with pytest.raises(CatalogError, match="btp index key of 28 bytes"):
            db.archive(_stream("s"), mc_alpha=2)
        assert _stream_trees(db) == []
        assert db.stream_names() == []
        db.archive(_stream("s"), mc_alpha=2, btp=False)
        assert "btp:location" not in db.stream_meta("s").indexes
        _assert_exact(db)


def test_an_archive_that_raises_drops_the_trees_it_wrote(tmp_path,
                                                        monkeypatch):
    """A step that raises after the first tree is written leaves no tree
    of the stream behind, so the same stream archives afterwards."""
    import repro.core.engine as engine

    def broken_build_mc(*args, **kwargs):
        raise RuntimeError("MC build failed")

    with Caldera(str(tmp_path)) as db:
        db.archive(_stream("other"), mc_alpha=2)
        kept = _stream_trees(db, "other")
        monkeypatch.setattr(engine, "build_mc", broken_build_mc)
        with pytest.raises(RuntimeError, match="MC build failed"):
            db.archive(_stream("s"), mc_alpha=2)
        assert _stream_trees(db) == []
        assert db.stream_names() == ["other"]
        assert _stream_trees(db, "other") == kept
        monkeypatch.undo()
        db.archive(_stream("s"), mc_alpha=2)
        assert db.stream_names() == ["other", "s"]
        _assert_exact(db)


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
        assert assert_cheapest(db, "syn", JOIN_QUERY)[0] == "btree"
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
