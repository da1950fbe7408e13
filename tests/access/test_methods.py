"""Cross-checks of the access methods (Algorithms 1, 2, 3, 5) through
the Caldera facade: the exact methods agree on every emitted timestep,
across every archive layout."""

import pytest
from candidates import assert_fewest

from repro.access import (
    FixedBTree,
    FixedTopK,
    NaiveScan,
    SemiIndependent,
    VariableMC,
)
from repro.core import Caldera
from repro.probability import CPT, SparseDistribution
from repro.streams import (
    ENTERED_ROOM_QUERY,
    Layout,
    MarkovianStream,
    StateSpace,
    synthetic_stream,
)

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


def test_threshold_keeps_matches_exactly_at_tau(tmp_path):
    """A threshold query returns every match with ``p >= tau``: on a
    deterministic stream whose matches all have probability 1.0, top-k's
    bound equals tau and must not stop sorted access or prune."""
    space = StateSpace(("location",), [("A",), ("Door",), ("Room",)])
    path = [0, 1, 2, 0, 0, 1, 2, 0]
    marginals = [SparseDistribution({s: 1.0}) for s in path]
    cpts = [CPT({a: {b: 1.0}}) for a, b in zip(path, path[1:])]
    want = [(2, 1.0), (6, 1.0)]
    with Caldera(str(tmp_path)) as db:
        db.archive(MarkovianStream("det", space, marginals, cpts))
        for method in ("naive", "btree", "topk", "auto"):
            got = db.query("det", ENTERED_ROOM_QUERY, method=method,
                           threshold=1.0).signal
            assert got == want, method
        ctx = db.context("det", ENTERED_ROOM_QUERY)
        enhanced = FixedTopK(threshold=1.0, enhanced_pruning=True)
        assert enhanced.run(ctx).signal == want


THREE_LINK_QUERY = "location=C1 -> location=Door -> location=Room"
#: Sorted-access cost of Alg 3 on this module's ``db``: (logical reads,
#: candidates examined, candidates pruned) per layout. The fig8a/fig8b
#: baselines do not run top-k, so these pin BT_P's read path.
TOPK_COSTS = {
    (ENTERED_ROOM_QUERY, "k=3"): {"separated": (725, 90, 0),
                                  "cell": (725, 90, 0),
                                  "packed": (171, 90, 0)},
    (ENTERED_ROOM_QUERY, "threshold=0.6"): {"separated": (725, 90, 0),
                                            "cell": (725, 90, 0),
                                            "packed": (171, 90, 0)},
    (THREE_LINK_QUERY, "k=3"): {"separated": (752, 226, 224),
                                "cell": (746, 226, 224),
                                "packed": (474, 226, 224)},
    (THREE_LINK_QUERY, "threshold=0.3"): {"separated": (415, 142, 140),
                                          "cell": (411, 142, 140),
                                          "packed": (289, 142, 140)},
}


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
@pytest.mark.parametrize("text,mode", list(TOPK_COSTS))
def test_topk_sorted_access_cost_is_pinned(db, layout, text, mode):
    name, value = mode.split("=")
    kwargs = {"k": int(value)} if name == "k" else {"threshold": float(value)}
    result = db.query(f"syn_{layout}", text, method="topk", cold=True,
                      **kwargs)
    stats = result.stats
    assert (stats.io.logical_reads, stats.candidates_examined,
            stats.candidates_pruned) == TOPK_COSTS[text, mode][layout]


CONDITIONED_QUERY = "location=Door -> (location=C1)* location=Room"
#: (label, access method, query) — every method, threshold top-k and
#: conditioned MC included.
COUNTED_RUNS = [
    ("naive", NaiveScan(), ENTERED_ROOM_QUERY),
    ("btree", FixedBTree(), ENTERED_ROOM_QUERY),
    ("topk", FixedTopK(k=3), ENTERED_ROOM_QUERY),
    ("threshold", FixedTopK(threshold=0.3), ENTERED_ROOM_QUERY),
    ("mc", VariableMC(), KLEENE_QUERY),
    ("semi", SemiIndependent(), KLEENE_QUERY),
    ("mc_conditioned", VariableMC(use_conditioned=True), CONDITIONED_QUERY),
]
#: Each run's exact cost on ``mc_db``: logical reads per layout
#: (separated, cell, packed), then (Reg initializations, Reg updates,
#: marginals read, CPTs read, MC lookups, MC base CPTs, MC compositions,
#: candidates examined, candidates pruned, intervals processed).
COUNTED_COSTS = {
    "naive": ((600, 600, 76), (1, 299, 1, 299, 0, 0, 0, 0, 0, 0)),
    "btree": ((241, 241, 37), (3, 115, 3, 115, 0, 0, 0, 59, 0, 3)),
    "topk": ((481, 481, 139), (59, 59, 179, 59, 0, 0, 0, 60, 1, 59)),
    "threshold": ((481, 481, 139), (59, 59, 179, 59, 0, 0, 0, 60, 1, 59)),
    "mc": ((253, 253, 47), (1, 118, 1, 117, 5, 1, 5, 0, 0, 0)),
    "semi": ((243, 243, 37), (1, 118, 2, 117, 0, 0, 0, 0, 0, 0)),
    "mc_conditioned": ((467, 455, 229),
                       (1, 134, 1, 117, 67, 45, 83, 0, 0, 0)),
}


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
    its stats: marginals in ``marginals_read``, CPTs (one per point read,
    ``stop - start`` per block read) in ``cpts_read`` or, for the MC
    index's base steps, ``mc_lookups.base_cpts_read``. Every counter
    then equals its ``COUNTED_COSTS`` pin."""
    ctx = mc_db.context(f"syn_{layout}", text)
    calls = {"marginal": 0, "cpt_into": 0}
    for name in calls:
        real = getattr(ctx.reader, name)

        def counted(t, real=real, name=name):
            calls[name] += 1
            return real(t)

        setattr(ctx.reader, name, counted)
    real_scan = ctx.reader.scan_cpts

    def scanned(start, stop):
        calls["cpt_into"] += stop - start
        return real_scan(start, stop)

    ctx.reader.scan_cpts = scanned
    stats = method.run(ctx).stats
    assert calls["marginal"] + calls["cpt_into"] > 0
    assert stats.marginals_read == calls["marginal"]
    assert stats.cpts_read + stats.mc_lookups.base_cpts_read == \
        calls["cpt_into"]
    reads, counters = COUNTED_COSTS[label]
    mc = stats.mc_lookups
    assert stats.io.logical_reads == \
        dict(zip((lo.value for lo in LAYOUTS), reads))[layout]
    assert (stats.reg_initializations, stats.reg_updates,
            stats.marginals_read, stats.cpts_read, mc.lookups,
            mc.base_cpts_read, mc.compositions, stats.candidates_examined,
            stats.candidates_pruned, stats.intervals_processed) == counters


#: (query, planner options) that auto-plans on ``mc_db``.
PLANNED = [
    (ENTERED_ROOM_QUERY, {}),
    (ENTERED_ROOM_QUERY, {"k": 3}),
    (ENTERED_ROOM_QUERY, {"threshold": 0.3}),
    (KLEENE_QUERY, {}),
    (KLEENE_QUERY, {"approximate": True}),
    (CONDITIONED_QUERY, {"use_conditioned": True}),
]


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
def test_naive_prediction_is_its_counted_cost(mc_db, layout):
    """The scan's predicted reads are exactly its ``COUNTED_COSTS`` pin:
    a marginal and a CPT read per step, a frame read per packed frame."""
    pins = dict(zip((lo.value for lo in LAYOUTS), COUNTED_COSTS["naive"][0]))
    for text, kwargs in PLANNED:
        decision = mc_db.explain(f"syn_{layout}", text, **kwargs)
        naive = decision.candidates[0]
        assert naive.label.startswith("naive")
        assert naive.low == naive.high == pins[layout] + decision.probe_reads


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
@pytest.mark.parametrize("text,kwargs", PLANNED,
                         ids=[f"{t}|{k}" for t, k in PLANNED])
def test_auto_picks_the_fewest_reads_candidate(mc_db, layout, text, kwargs):
    assert_fewest(mc_db, f"syn_{layout}", text, **kwargs)


def test_auto_choices_on_mc_db(mc_db):
    """Entered-Room runs Alg 2 (241 / 241 / 37 reads, not the scan's
    600 / 600 / 76). For the conditioned query, the scan (76 reads)
    beats conditioned MC (229) on ``packed``, and exact MC reads the
    fewest on the other layouts."""
    for layout, reads in zip(LAYOUTS, COUNTED_COSTS["btree"][0]):
        result = mc_db.query(f"syn_{layout.value}", ENTERED_ROOM_QUERY)
        assert (result.method, result.stats.io.logical_reads) == \
            ("btree", reads)
    chosen, reads = assert_fewest(mc_db, "syn_packed", CONDITIONED_QUERY,
                                  use_conditioned=True)
    assert chosen == "naive"
    assert (reads["naive"], reads["mc conditioned"]) == (76, 229)
    for layout in ("separated", "cell"):
        assert assert_fewest(mc_db, f"syn_{layout}", CONDITIONED_QUERY,
                             use_conditioned=True)[0] == "mc"
