"""The value index: BT_C and BT_P are one entry list in two key orders.

Tree contents are checked against an independent rebuild from the
marginals; one value's entries, read a leaf at a time as arrays, and
the predicate cursor of sorted access are driven directly, without an
access method on top.
"""

import random

import numpy as np
import pytest

from reference_index_build import (
    reference_entries,
    reference_items,
    reference_stats,
)

from repro.core import Caldera
from repro.errors import CatalogError, KeyEncodingError
from repro.indexes import (
    PredicateProbCursor,
    build_value_indexes,
    index_tree_name,
    open_value_index,
)
from repro.indexes import btc, btp, builder
from repro.probability import MarginalBlock, SparseDistribution
from repro.query.predicates import Equals, InSet
from repro.storage import StorageEnvironment
from repro.streams import StateSpace, single_attribute_space, synthetic_stream

KIND = {"Door": "entry", "Room": "space", "C0": "hall", "C1": "hall"}
DIMENSIONS = {"Kind": KIND}
KINDS = ("btc", "btp")


@pytest.fixture
def env(tmp_path):
    environment = StorageEnvironment(str(tmp_path / "db"))
    yield environment
    environment.close()


@pytest.mark.parametrize("attr", ["location", "location/Kind"])
def test_trees_equal_an_independent_rebuild(env, attr):
    stream = synthetic_stream("s", num_snippets=6, density=0.5, seed=3)
    pairs = list(enumerate(stream.marginals))
    built = build_value_indexes(env, "s", stream.space, attr,
                                stream.marginal_block, KINDS,
                                dimensions=DIMENSIONS)
    entries = reference_entries(stream.space, attr, pairs, DIMENSIONS)
    assert entries
    for kind in KINDS:
        assert list(built[kind].tree.items()) == \
            reference_items(kind, entries)
        assert env.exists(index_tree_name("s", kind, attr))
        reopened = open_value_index(env, "s", stream.space, kind, attr,
                                    dimensions=DIMENSIONS)
        assert list(reopened.tree.items()) == list(built[kind].tree.items())


#: Two attributes, so a location's mass is summed over activities; E is
#: in no dimension table row (unmapped by the join index).
TIES_SPACE = StateSpace(("location", "activity"),
                        [(loc, act) for loc in "ABCDE" for act in "xy"])
TIES_TABLE = {"A": "left", "B": "left", "C": "right", "D": "right"}


def _ties_marginals(steps=300, seed=11):
    """Weights from a small set, so BT_P holds many equal probabilities
    at different times, over supports in shuffled state order, so every
    sum's term order matters."""
    rng = random.Random(seed)
    weights = [0.1, 0.2, 0.125, 0.25, 0.3, 0.7, 5e-324, 1.0]
    states = list(range(len(TIES_SPACE)))
    marginals = []
    for t in range(steps):
        support = rng.sample(states, rng.randint(0, 6))
        marginals.append((t, SparseDistribution(
            {s: rng.choice(weights) for s in support})))
    return marginals


@pytest.mark.parametrize("attr", ["location", "activity", "location/Kind"])
def test_tree_files_equal_the_per_entry_build(tmp_path, attr):
    marginals = _ties_marginals()
    dimensions = {"Kind": TIES_TABLE}
    entries = reference_entries(TIES_SPACE, attr, marginals, dimensions)
    probs = [p for _, _, p in entries]
    assert len(set(probs)) < len(probs)
    with StorageEnvironment(str(tmp_path / "array")) as env:
        built = build_value_indexes(env, "s", TIES_SPACE, attr,
                                    MarginalBlock.of([m for _, m in marginals]),
                                    KINDS, dimensions=dimensions, pack=4)
        n_codes = built["btc"].indexed.codes()
        stats = built["btc"].stats
    assert (stats.entries, stats.runs, stats.frames) == \
        reference_stats(entries, n_codes, 4)
    with StorageEnvironment(str(tmp_path / "oracle")) as env:
        for kind in KINDS:
            tree = env.open_tree(index_tree_name("s", kind, attr))
            tree.bulk_load(reference_items(kind, entries))
    for kind in KINDS:
        name = index_tree_name("s", kind, attr) + ".btree"
        assert (tmp_path / "array" / name).read_bytes() == \
            (tmp_path / "oracle" / name).read_bytes()


def _encoded(kind, codes, times, probs):
    """``(key, value)`` bytes of each row ``kind.encode`` writes."""
    rows = kind.encode(np.array(codes), np.array(times), np.array(probs))
    width = kind.KEY.size
    return [(bytes(row[:width]), bytes(row[width:])) for row in rows]


def _decoded(kind, entries):
    keys, values = (b"".join(part) for part in zip(*entries))
    return [a.tolist() for a in kind.decode_entries(keys, values)]


@pytest.mark.parametrize("kind", [btc, btp])
def test_decode_reads_what_encode_wrote(kind):
    entries = _encoded(kind, [0, 3], [0, 2 ** 40], [1.0, 5e-324])
    assert _decoded(kind, entries) == [[0, 3], [0, 2 ** 40], [1.0, 5e-324]]


@pytest.mark.parametrize("kind,other", [(btc, btp), (btp, btc)])
def test_decode_refuses_a_bad_key(kind, other):
    [(key, value)] = _encoded(kind, [1], [5], [0.5])
    [(other_key, _)] = _encoded(other, [1], [5], [0.5])
    for bad in (key[:-1], key + b"\x00", b"\x20" + key[1:], other_key):
        with pytest.raises(KeyEncodingError):
            _decoded(kind, [(key, value), (bad, value)])


def test_decode_refuses_bt_c_values_of_the_wrong_width():
    [(key, value)] = _encoded(btc, [1], [5], [0.5])
    with pytest.raises(KeyEncodingError):
        _decoded(btc, [(key, value[:-1])])


def test_building_an_existing_index_is_refused(env):
    stream = synthetic_stream("s", num_snippets=2, seed=3)
    marginals = stream.marginal_block
    build_value_indexes(env, "s", stream.space, "location", marginals,
                        ("btc",))
    with pytest.raises(CatalogError, match="already exists"):
        build_value_indexes(env, "s", stream.space, "location", marginals,
                            KINDS)


# ---------------------------------------------------------------------------
# One value's entries, on a hand-made stream
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
                               MarginalBlock.of(MARGINALS), KINDS)


def _entries(index, value, *bounds):
    return [(t, p) for times, probs in index.entries(value, *bounds)
            for t, p in zip(times.tolist(), probs.tolist())]


def test_bt_c_reads_one_value_in_time_order(indexes):
    index = indexes["btc"]
    assert _entries(index, "B") == [(t, 0.3) for t in range(0, 40, 5)]
    assert index.times("B", 11, 40).tolist() == [15, 20, 25, 30, 35]
    assert index.times("B", 11, 30).tolist() == [15, 20, 25]
    assert index.times("B", 36, 40).tolist() == []
    assert _entries(index, "B", (36,)) == []  # past the value's end


def test_bt_p_reads_one_value_by_decreasing_probability(indexes):
    walked = _entries(indexes["btp"], "A")
    assert [t for t, _ in walked] == list(range(39, -1, -1))
    probs = [p for _, p in walked]
    assert probs == sorted(probs, reverse=True)
    assert probs[0] == pytest.approx(0.59)


@pytest.mark.parametrize("value", ["D", "Nowhere"])
@pytest.mark.parametrize("kind", KINDS)
def test_absent_value_has_no_entries(env, indexes, kind, value):
    snap = env.stats.snapshot()
    assert _entries(indexes[kind], value) == []
    assert indexes[kind].times(value, 0, 40).tolist() == []
    if value == "Nowhere":  # no code: nothing is read
        assert env.stats.delta(snap).logical_reads == 0


def test_entries_read_a_leaf_at_a_time(tmp_path):
    """A value spanning many leaves is read as the iteration reaches
    each: the descent and the first leaf, then one read per leaf."""
    with StorageEnvironment(str(tmp_path / "db"), page_size=512) as env:
        index = build_value_indexes(env, "h", SPACE, "location",
                                    MarginalBlock.of(MARGINALS),
                                    ("btc",))["btc"]
        assert index.tree.height > 1
        snap = env.stats.snapshot()
        leaves = index.entries("A")
        assert env.stats.delta(snap).logical_reads == 0
        sizes = []
        for times, _ in leaves:
            sizes.append(len(times))
            assert env.stats.delta(snap).logical_reads == \
                index.tree.height + len(sizes) - 1
        assert sum(sizes) == 40 and len(sizes) > 2


# ---------------------------------------------------------------------------
# Sorted access
# ---------------------------------------------------------------------------

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
    """One pass over the marginals per indexed attribute, whose entries
    every requested kind is built from."""
    passes = []
    real = builder.aggregate

    def counted(state_codes, marginals):
        passes.append(len(marginals.offsets) - 1)
        return real(state_codes, marginals)

    monkeypatch.setattr(builder, "aggregate", counted)
    stream = synthetic_stream("s", num_snippets=3, seed=5)
    with Caldera(str(tmp_path / "db")) as db:
        db.register_dimension_table("Kind", KIND)
        meta = db.archive(stream, btp=btp, join_tables=("Kind",))
    attrs = ["location", "location/Kind"]
    assert sorted(meta.indexes) == sorted(
        f"{kind}:{attr}" for kind in (KINDS if btp else ("btc",))
        for attr in attrs)
    assert passes == [len(stream)] * len(attrs)
