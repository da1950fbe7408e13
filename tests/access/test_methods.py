"""Cross-checks of the access methods (Algorithms 1, 2, 3, 5) through
the Caldera facade: the exact methods agree on every emitted timestep,
across every archive layout."""

import pytest

from repro.access import (
    FixedBTree,
    FixedTopK,
    NaiveScan,
    SemiIndependent,
    VariableMC,
)
from repro.core import Caldera
from repro.streams import ENTERED_ROOM_QUERY, Layout, synthetic_stream

LAYOUTS = (Layout.SEPARATED, Layout.CELL, Layout.PACKED)
KLEENE_QUERY = "location=Door -> (!location=Room)* location=Room"


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    path = tmp_path_factory.mktemp("db")
    database = Caldera(str(path))
    stream = synthetic_stream("syn", num_snippets=20, density=0.3,
                              match_rate=0.8, seed=19)
    for layout in LAYOUTS:
        stream.name = f"syn_{layout.value}"
        database.archive(stream, layout=layout)
    yield database
    database.close()


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
def test_naive_and_btree_agree_on_emitted_timesteps(db, layout):
    stream = f"syn_{layout}"
    text = ENTERED_ROOM_QUERY
    naive = dict(db.query(stream, text, method="naive").signal)
    btree = db.query(stream, text, method="btree").signal
    assert btree, "the B+tree method emitted nothing"
    for t, p in btree:
        assert naive.get(t, 0.0) == pytest.approx(p, abs=1e-9)
    # Alg 2 may skip timesteps it proves irrelevant, but never a
    # nonzero one.
    emitted = {t for t, _ in btree}
    for t, p in naive.items():
        if p > 1e-12:
            assert t in emitted, f"btree dropped nonzero timestep {t}"


def test_btree_rejects_variable_length_queries(db):
    """Alg 2 covers fixed-length queries only; Kleene loops must route
    to Alg 4/5 (and the naive fallback stays exact)."""
    from repro.errors import QueryError

    with pytest.raises(QueryError, match="fixed-length"):
        db.query("syn_separated", KLEENE_QUERY, method="btree")
    naive = db.query("syn_separated", KLEENE_QUERY, method="naive")
    assert naive.signal  # exact evaluation still works


def test_layouts_agree_with_each_other(db):
    signals = []
    for layout in LAYOUTS:
        result = db.query(f"syn_{layout.value}", ENTERED_ROOM_QUERY,
                          method="naive")
        signals.append(dict(result.signal))
    for other in signals[1:]:
        assert set(other) == set(signals[0])
        for t, p in signals[0].items():
            assert other[t] == pytest.approx(p, abs=1e-9)


def test_topk_returns_highest_peaks(db):
    full = dict(db.query("syn_separated", ENTERED_ROOM_QUERY,
                         method="naive").signal)
    top = db.query("syn_separated", ENTERED_ROOM_QUERY, method="topk",
                   k=3).signal
    assert len(top) <= 3
    # Emitted in time order; the *set* must be the k highest peaks.
    assert [t for t, _ in top] == sorted(t for t, _ in top)
    probs = sorted((p for _, p in top), reverse=True)
    best = sorted(full.values(), reverse=True)[:len(top)]
    assert probs == pytest.approx(best, abs=1e-9)


def test_semi_independent_is_close_at_peaks(db):
    """Alg 5's independence approximation tracks the exact signal at
    the peaks that matter for thresholding."""
    exact = dict(db.query("syn_separated", ENTERED_ROOM_QUERY,
                          method="naive").signal)
    approx = dict(db.query("syn_separated", ENTERED_ROOM_QUERY,
                           method="semi").signal)
    peak_t = max(exact, key=exact.get)
    assert approx, "semi-independent emitted nothing"
    assert approx.get(peak_t, 0.0) > 0.0


def test_btree_reads_fewer_pages_than_naive(db):
    for method in ("naive", "btree"):
        db.drop_caches()
        db.stats.reset()
        db.query("syn_separated", ENTERED_ROOM_QUERY, method=method,
                 cold=True)
        if method == "naive":
            naive_reads = db.stats.logical_reads
        else:
            btree_reads = db.stats.logical_reads
    assert btree_reads * 2 < naive_reads


CONDITIONED_QUERY = "location=Door -> (location=C1)* location=Room"
#: (label, access method, query) — every method, conditioned MC included.
COUNTED_RUNS = [
    ("naive", NaiveScan(), ENTERED_ROOM_QUERY),
    ("btree", FixedBTree(), ENTERED_ROOM_QUERY),
    ("topk", FixedTopK(k=3), ENTERED_ROOM_QUERY),
    ("mc", VariableMC(), KLEENE_QUERY),
    ("semi", SemiIndependent(), KLEENE_QUERY),
    ("mc_conditioned", VariableMC(use_conditioned=True), CONDITIONED_QUERY),
]


@pytest.fixture(scope="module")
def mc_db(tmp_path_factory):
    database = Caldera(str(tmp_path_factory.mktemp("mc_db")))
    stream = synthetic_stream("syn", num_snippets=10, density=0.4,
                              match_rate=0.6, seed=31)
    query = database.parse(CONDITIONED_QUERY)
    loop = next(link.loop for link in query.links if link.has_positive_loop)
    for layout in LAYOUTS:
        stream.name = f"syn_{layout.value}"
        database.archive(stream, layout=layout, mc_alpha=2,
                         conditioned_predicates=[loop])
    yield database
    database.close()


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
@pytest.mark.parametrize("label,method,text", COUNTED_RUNS,
                         ids=[run[0] for run in COUNTED_RUNS])
def test_every_read_is_counted_once(mc_db, layout, label, method, text):
    """Each reader call an access method makes shows up exactly once in
    its stats: marginals in ``marginals_read``, CPTs in ``cpts_read``
    or, for the MC index's base steps, ``mc_lookups.base_cpts_read``."""
    ctx = mc_db.context(f"syn_{layout}", text)
    calls = {"marginal": 0, "cpt_into": 0}
    for name in calls:
        real = getattr(ctx.reader, name)

        def counted(t, real=real, name=name):
            calls[name] += 1
            return real(t)

        setattr(ctx.reader, name, counted)
    stats = method.run(ctx).stats
    assert calls["marginal"] + calls["cpt_into"] > 0
    assert stats.marginals_read == calls["marginal"]
    assert stats.cpts_read + stats.mc_lookups.base_cpts_read == \
        calls["cpt_into"]
