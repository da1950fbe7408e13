"""The value index: BT_C and BT_P are one entry list in two key orders.

Tree contents are checked against an independent rebuild from the
marginals; the per-value cursors and the predicate cursors over them
are driven directly, without an access method on top.
"""

import struct

import pytest

from repro.core import Caldera
from repro.errors import CatalogError, QueryError
from repro.indexes import (
    ChronoCursor,
    IndexedAttribute,
    PredicateChronoCursor,
    PredicateProbCursor,
    ProbCursor,
    build_value_indexes,
    index_tree_name,
    open_value_index,
)
from repro.probability import SparseDistribution
from repro.query.predicates import Equals, IndexTerm, InSet
from repro.storage import Desc, StorageEnvironment, encode_key
from repro.streams import single_attribute_space, synthetic_stream

KIND = {"Door": "entry", "Room": "space", "C0": "hall", "C1": "hall"}
DIMENSIONS = {"Kind": KIND}
KINDS = ("btc", "btp")


@pytest.fixture
def env(tmp_path):
    environment = StorageEnvironment(str(tmp_path / "db"))
    yield environment
    environment.close()


def _expected_entries(stream, attr):
    """``(code, t, prob)`` per indexed value and timestep, summed
    directly from the marginals (no IndexedAttribute involved)."""
    space = stream.space
    if attr == "location":
        vocab = space.vocabulary("location")

        def value_of(state):
            return space.attribute_value(state, "location")

        code = vocab.code
    else:
        codes = {v: i for i, v in enumerate(sorted(set(KIND.values())))}

        def value_of(state):
            return KIND.get(space.attribute_value(state, "location"))

        code = codes.__getitem__
    entries = []
    for t, marginal in enumerate(stream.marginals):
        sums = {}
        for state, p in marginal.items():
            value = value_of(state)
            if value is not None:
                sums[value] = sums.get(value, 0.0) + p
        entries.extend((code(v), t, p) for v, p in sums.items())
    return entries


@pytest.mark.parametrize("attr", ["location", "location/Kind"])
def test_trees_equal_an_independent_rebuild(env, attr):
    stream = synthetic_stream("s", num_snippets=6, density=0.5, seed=3)
    pairs = list(enumerate(stream.marginals))
    built = build_value_indexes(env, "s", stream.space, attr, pairs, KINDS,
                                dimensions=DIMENSIONS)
    entries = _expected_entries(stream, attr)
    assert entries
    btc = sorted((encode_key((c, t)), struct.pack("<d", p))
                 for c, t, p in entries)
    btp = sorted((encode_key((c, Desc(p), t)), b"") for c, t, p in entries)
    assert list(built["btc"].tree.items()) == btc
    assert list(built["btp"].tree.items()) == btp
    for kind in KINDS:
        assert env.exists(index_tree_name("s", kind, attr))
        reopened = open_value_index(env, "s", stream.space, kind, attr,
                                    dimensions=DIMENSIONS)
        assert list(reopened.tree.items()) == list(built[kind].tree.items())


def test_building_an_existing_index_is_refused(env):
    stream = synthetic_stream("s", num_snippets=2, seed=3)
    pairs = list(enumerate(stream.marginals))
    build_value_indexes(env, "s", stream.space, "location", pairs, ("btc",))
    with pytest.raises(CatalogError, match="already exists"):
        build_value_indexes(env, "s", stream.space, "location", pairs,
                            KINDS)


# ---------------------------------------------------------------------------
# Per-value cursors on a hand-made stream
# ---------------------------------------------------------------------------

#: Value D is in the vocabulary but never has mass.
SPACE = single_attribute_space("location", ["A", "B", "C", "D"])


def _marginal(**probs):
    return SparseDistribution(
        {SPACE.state_id((v,)): p for v, p in probs.items()})


#: A has mass at every step 0..39, B at every fifth step, C at step 2.
MARGINALS = [
    _marginal(A=0.2 + 0.01 * t, B=0.3 if t % 5 == 0 else 0.0,
              C=0.1 if t == 2 else 0.0)
    for t in range(40)
]


@pytest.fixture
def indexes(env):
    return build_value_indexes(env, "h", SPACE, "location",
                               list(enumerate(MARGINALS)), KINDS)


def _walk(cursor, first):
    out = []
    ok = first()
    while ok:
        out.append((cursor.time, cursor.prob))
        ok = cursor.next()
    assert not cursor.valid
    return out


def test_chrono_cursor_walks_one_value_in_time_order(indexes):
    cursor = ChronoCursor(indexes["btc"], "B")
    walked = _walk(cursor, lambda: cursor.seek(0))
    assert walked == [(t, 0.3) for t in range(0, 40, 5)]
    assert cursor.seek(11) and cursor.time == 15
    assert not cursor.seek(36)


def test_prob_cursor_walks_one_value_by_decreasing_probability(indexes):
    cursor = ProbCursor(indexes["btp"], "A")
    walked = _walk(cursor, cursor.seek)
    assert [t for t, _ in walked] == list(range(39, -1, -1))
    probs = [p for _, p in walked]
    assert probs == sorted(probs, reverse=True)
    assert probs[0] == pytest.approx(0.59)


@pytest.mark.parametrize("value", ["D", "Nowhere"])
@pytest.mark.parametrize("kind,cls", [("btc", ChronoCursor),
                                      ("btp", ProbCursor)])
def test_absent_value_never_becomes_valid(indexes, kind, cls, value):
    cursor = cls(indexes[kind], value)
    assert not cursor.valid
    assert not cursor.seek(*((0,) if kind == "btc" else ()))
    assert not cursor.next()
    assert not cursor.valid
    with pytest.raises(QueryError):
        cursor.time
    with pytest.raises(QueryError):
        cursor.prob


# ---------------------------------------------------------------------------
# Predicate cursors
# ---------------------------------------------------------------------------

def _terms(*values):
    return [IndexTerm("location", v) for v in values]


def test_predicate_chrono_cursor_advance_to_seeks_far_and_steps_near(
        indexes, monkeypatch):
    calls = {"seek": 0, "next": 0}
    for name in calls:
        real = getattr(ChronoCursor, name)

        def counted(self, *args, real=real, name=name):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(ChronoCursor, name, counted)
    cursor = PredicateChronoCursor(lambda term: indexes["btc"],
                                   _terms("A"))
    assert cursor.advance_to(0) and cursor.time == 0
    assert calls == {"seek": 1, "next": 0}
    # Near (within 8 steps): linear next calls.
    assert cursor.advance_to(4) and cursor.time == 4
    assert calls == {"seek": 1, "next": 4}
    # Far (more than 8 steps away): one seek.
    assert cursor.advance_to(30) and cursor.time == 30
    assert calls == {"seek": 2, "next": 4}
    assert cursor.prob == pytest.approx(0.5)
    assert not cursor.advance_to(40)


def test_predicate_chrono_cursor_sums_terms_per_timestep(indexes):
    cursor = PredicateChronoCursor(lambda term: indexes["btc"],
                                   _terms("B", "C"))
    walked = []
    while cursor.next():
        walked.append((cursor.time, cursor.prob))
    assert walked == [(0, 0.3), (2, 0.1), (5, 0.3), (10, 0.3), (15, 0.3),
                      (20, 0.3), (25, 0.3), (30, 0.3), (35, 0.3)]
    both = PredicateChronoCursor(lambda term: indexes["btc"],
                                 _terms("A", "B"))
    assert both.seek(5) and both.prob == pytest.approx(0.25 + 0.3)


def test_predicate_prob_cursor_bound_multiplier(indexes):
    single = Equals("location", "B").index_terms(SPACE)
    multi = InSet("location", ["B", "C"]).index_terms(SPACE)
    assert PredicateProbCursor(lambda term: indexes["btp"],
                               single).bound_multiplier == 1
    cursor = PredicateProbCursor(lambda term: indexes["btp"], multi)
    assert cursor.bound_multiplier == 2
    popped = []
    while cursor.peek_prob() is not None:
        popped.append(cursor.pop())
    assert cursor.pop() is None
    assert [p for p, _ in popped] == [0.3] * 8 + [0.1]
    assert sorted(t for _, t in popped) == [0, 2, 5, 10, 15, 20, 25, 30, 35]


# ---------------------------------------------------------------------------
# One aggregation pass per archive
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("btp", [True, False])
def test_archive_aggregates_each_marginal_once(tmp_path, monkeypatch, btp):
    calls = []
    real = IndexedAttribute.aggregate

    def counted(self, marginal):
        calls.append(self.name)
        return real(self, marginal)

    monkeypatch.setattr(IndexedAttribute, "aggregate", counted)
    stream = synthetic_stream("s", num_snippets=3, seed=5)
    with Caldera(str(tmp_path / "db")) as db:
        db.register_dimension_table("Kind", KIND)
        meta = db.archive(stream, btp=btp, join_tables=("Kind",))
    attrs = ["location", "location/Kind"]
    assert sorted(meta.indexes) == sorted(
        f"{kind}:{attr}" for kind in (KINDS if btp else ("btc",))
        for attr in attrs)
    assert sorted(calls) == sorted(attrs * len(stream))
