"""The differential harness: randomized cross-checks of all five
access methods (Algorithms 1, 2, 3, 4, 5) against each other, across
every archive layout.

The exact methods — naive scan, fixed B+tree, top-k B+tree, and the
MC-index method in exact mode — must agree on the probability signal
to 1e-9 on every emitted timestep (BT_C guarantees any timestep with
nonzero mass on a predicate's states is indexed, so a nonzero naive
probability implies the timestep is a relevant event every indexed
method visits). The approximate semi-independent method is held to its
documented bound (see :mod:`repro.access.semi_independent`)."""

import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Caldera
from repro.errors import PlanningError
from repro.streams import Layout, synthetic_stream

LAYOUTS = (Layout.SEPARATED, Layout.CELL, Layout.PACKED)
TOL = 1e-9
#: Values with mass in the synthetic world (C6/C7 are rarely visited).
VALUES = ["Door", "Room", "C0", "C1", "C3"]


def random_fixed_query(rng: random.Random) -> str:
    links = rng.randint(2, 3)
    return " -> ".join(
        f"location={rng.choice(VALUES)}" for _ in range(links))


def random_variable_query(rng: random.Random) -> str:
    first = rng.choice(VALUES)
    last = rng.choice(["Door", "Room"])
    return f"location={first} -> (!location={last})* location={last}"


_RNG = random.Random(20260806)
FIXED_QUERIES = [random_fixed_query(_RNG) for _ in range(4)]
VARIABLE_QUERIES = [random_variable_query(_RNG) for _ in range(3)]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    path = tmp_path_factory.mktemp("diff_db")
    database = Caldera(str(path))
    stream = synthetic_stream("syn", num_snippets=12, density=0.35,
                              match_rate=0.6, seed=23)
    for layout in LAYOUTS:
        stream.name = f"syn_{layout.value}"
        database.archive(stream, layout=layout, mc_alpha=2)
    yield database
    database.close()


def assert_signals_agree(exact: dict, other, *, cover_nonzero=True):
    """Every value the method emitted matches the exact signal; every
    nonzero exact timestep is covered."""
    assert other, "method emitted nothing"
    for t, p in other:
        assert exact.get(t, 0.0) == pytest.approx(p, abs=TOL), t
    if cover_nonzero:
        emitted = {t for t, _ in other}
        for t, p in exact.items():
            if p > 1e-12:
                assert t in emitted, f"dropped nonzero timestep {t}"


# ---------------------------------------------------------------------------
# Deterministic sweep: methods x layouts x random-but-pinned queries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
@pytest.mark.parametrize("qtext", FIXED_QUERIES)
def test_fixed_methods_agree(db, layout, qtext):
    stream = f"syn_{layout}"
    naive = dict(db.query(stream, qtext, method="naive").signal)
    if not any(p > 1e-12 for p in naive.values()):
        pytest.skip("query has zero signal on this stream")
    btree = db.query(stream, qtext, method="btree").signal
    assert_signals_agree(naive, btree)
    top = db.query(stream, qtext, method="topk", k=5).signal
    best = sorted(naive.values(), reverse=True)[:len(top)]
    assert sorted((p for _, p in top), reverse=True) == \
        pytest.approx(best, abs=TOL)


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
@pytest.mark.parametrize("qtext", VARIABLE_QUERIES)
def test_variable_mc_agrees_with_naive(db, layout, qtext):
    stream = f"syn_{layout}"
    naive = dict(db.query(stream, qtext, method="naive").signal)
    mc = db.query(stream, qtext, method="mc").signal
    assert_signals_agree(naive, mc)


@pytest.mark.parametrize("qtext", VARIABLE_QUERIES)
def test_mc_layouts_agree(db, qtext):
    signals = [
        dict(db.query(f"syn_{lo.value}", qtext, method="mc").signal)
        for lo in LAYOUTS
    ]
    for other in signals[1:]:
        assert set(other) == set(signals[0])
        for t, p in signals[0].items():
            assert other[t] == pytest.approx(p, abs=TOL)


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
def test_semi_independent_within_documented_bound(db, layout):
    """The three guarantees documented in
    :mod:`repro.access.semi_independent`: same support as the exact MC
    method, valid probabilities, exact prefix until the first gap."""
    stream = f"syn_{layout}"
    qtext = VARIABLE_QUERIES[0]
    exact = db.query(stream, qtext, method="mc").signal
    semi = db.query(stream, qtext, method="semi").signal
    # (1) identical support: the relevant-event set.
    assert [t for t, _ in semi] == [t for t, _ in exact]
    # (2) valid probabilities.
    for _, p in semi:
        assert -TOL <= p <= 1.0 + TOL
    # (3) exact until the first gap of two or more timesteps.
    for (t, want), (_, got) in zip(exact, semi):
        assert got == pytest.approx(want, abs=TOL)
        nxt = exact[exact.index((t, want)) + 1][0] if \
            exact.index((t, want)) + 1 < len(exact) else None
        if nxt is not None and nxt - t > 1:
            break


def test_conditioned_mode_agrees_at_run_boundaries(db):
    """Conditioned skipping (§3.3.2) emits at loop-run boundaries only,
    with the same values as exact mode there."""
    db2_path = tempfile.mkdtemp()
    try:
        with Caldera(db2_path) as db2:
            stream = synthetic_stream("syn", num_snippets=8, density=0.4,
                                      match_rate=0.5, seed=29)
            query = db2.parse("location=Door -> (location=C1)* location=Room")
            loop = next(link.loop for link in query.links
                        if link.has_positive_loop)
            db2.archive(stream, layout="separated", mc_alpha=2,
                        conditioned_predicates=[loop])
            exact = dict(db2.query("syn", query, method="mc").signal)
            cond = db2.query("syn", query, method="mc",
                             use_conditioned=True).signal
            assert cond, "conditioned mode emitted nothing"
            assert len(cond) <= len(exact)
            for t, p in cond:
                assert exact[t] == pytest.approx(p, abs=TOL)
    finally:
        shutil.rmtree(db2_path)


# ---------------------------------------------------------------------------
# Link predicates no index can list
# ---------------------------------------------------------------------------

#: Variable-length queries whose *link* predicates are negated: their
#: relevant events are not what the BT_C index lists, so skipping is
#: unsound and only the scan may answer them.
NEGATED_LINK_QUERIES = [
    "!location=Door -> (!location=C1)* !location=Room",
    "!location=Door -> (location=C1)* !location=Room",
]


@pytest.fixture(scope="module")
def dense_db(tmp_path_factory):
    database = Caldera(str(tmp_path_factory.mktemp("dense_db")))
    stream = synthetic_stream("syn", num_snippets=10, density=1.0,
                              match_rate=0.5, seed=23)
    for layout in LAYOUTS:
        stream.name = f"syn_{layout.value}"
        database.archive(stream, layout=layout, mc_alpha=2)
    yield database
    database.close()


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
@pytest.mark.parametrize("qtext", NEGATED_LINK_QUERIES)
def test_negated_link_queries_plan_the_scan(dense_db, layout, qtext):
    stream = f"syn_{layout}"
    naive = dict(dense_db.query(stream, qtext, method="naive").signal)
    auto = dense_db.query(stream, qtext)
    assert auto.method == "naive"
    assert_signals_agree(naive, auto.signal)
    assert len(auto.signal) == len(naive)


@pytest.mark.parametrize("method", ["mc", "semi"])
def test_event_methods_refuse_negated_links(dense_db, method):
    """A negated loop is fine (the Kleene queries above); a negated
    link is not, so a pinned Alg 4 or 5 raises instead of answering
    with an empty signal."""
    for qtext in NEGATED_LINK_QUERIES + ["!location=Door -> !location=Room"]:
        with pytest.raises(PlanningError, match="not indexable"):
            dense_db.query("syn_separated", qtext, method=method)


# ---------------------------------------------------------------------------
# Hypothesis sweep: random streams x random queries x random layouts
# ---------------------------------------------------------------------------

@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    density=st.floats(0.1, 0.7),
    match_rate=st.floats(0.0, 1.0),
    layout=st.sampled_from(LAYOUTS),
    qseed=st.integers(0, 10_000),
)
def test_random_streams_fixed_methods_agree(seed, density, match_rate,
                                            layout, qseed):
    rng = random.Random(qseed)
    qtext = random_fixed_query(rng)
    path = tempfile.mkdtemp()
    try:
        with Caldera(path) as db:
            stream = synthetic_stream("syn", num_snippets=4,
                                      density=density,
                                      match_rate=match_rate, seed=seed)
            db.archive(stream, layout=layout, mc_alpha=2)
            naive = dict(db.query("syn", qtext, method="naive").signal)
            btree = db.query("syn", qtext, method="btree").signal
            if btree:
                assert_signals_agree(naive, btree)
            else:
                assert all(p <= 1e-12 for p in naive.values())
    finally:
        shutil.rmtree(path)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    density=st.floats(0.1, 0.7),
    layout=st.sampled_from(LAYOUTS),
    qseed=st.integers(0, 10_000),
)
def test_random_streams_variable_methods_agree(seed, density, layout,
                                               qseed):
    rng = random.Random(qseed)
    qtext = random_variable_query(rng)
    path = tempfile.mkdtemp()
    try:
        with Caldera(path) as db:
            stream = synthetic_stream("syn", num_snippets=4,
                                      density=density, match_rate=0.7,
                                      seed=seed)
            db.archive(stream, layout=layout, mc_alpha=2)
            naive = dict(db.query("syn", qtext, method="naive").signal)
            mc = db.query("syn", qtext, method="mc").signal
            if mc:
                assert_signals_agree(naive, mc)
            else:
                assert all(p <= 1e-12 for p in naive.values())
            semi = db.query("syn", qtext, method="semi").signal
            assert [t for t, _ in semi] == [t for t, _ in mc]
            for _, p in semi:
                assert -TOL <= p <= 1.0 + TOL
    finally:
        shutil.rmtree(path)
