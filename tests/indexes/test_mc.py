"""Unit tests for the MC index (§4.2.2, Algorithm 4): record layout,
metadata, greedy gap traversal, the conditioned variant, and misuse."""

import json
import random

import pytest

from repro.errors import CatalogError, StreamError
from repro.indexes.builder import build_mc, open_mc
from repro.indexes.mc import META_KEY, MCIndex, MCLookupStats, max_level_for
from repro.obs.metrics import MetricsRegistry
from repro.probability import CPT, SparseDistribution
from repro.probability.cpt import RECORD_VERSION
from repro.storage import StorageEnvironment
from repro.streams import (
    Layout,
    MarkovianStream,
    open_reader,
    single_attribute_space,
    write_stream,
)

LENGTH = 40
NUM_STATES = 4


def make_stream(seed: int, length: int = LENGTH,
                num_states: int = NUM_STATES,
                name: str = "s") -> MarkovianStream:
    rng = random.Random(seed)
    space = single_attribute_space(
        "location", [f"S{i}" for i in range(num_states)])

    def row():
        targets = rng.sample(range(num_states), rng.randint(1, num_states))
        weights = [rng.random() + 1e-3 for _ in targets]
        total = sum(weights)
        return SparseDistribution(
            {s: w / total for s, w in zip(targets, weights)})

    marginals = [row()]
    cpts = []
    for _ in range(length - 1):
        cpt = CPT({x: row() for x in marginals[-1].support()})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream(name, space, marginals, cpts)


@pytest.fixture()
def env(tmp_path):
    with StorageEnvironment(str(tmp_path), page_size=8192) as env:
        yield env


@pytest.fixture()
def reader(env):
    stream = make_stream(3)
    write_stream(env, stream, layout=Layout.SEPARATED)
    return open_reader(env, "s", stream.space)


def build_index(env, reader, alpha):
    return build_mc(env, f"s{alpha}", reader, alpha=alpha)


def stepwise(reader, start, end):
    acc = None
    for t in range(start + 1, end + 1):
        cpt = reader.cpt_into(t)
        acc = cpt if acc is None else acc.compose(cpt)
    return acc


# ---------------------------------------------------------------------------
# Level scheme and construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,length,expected", [
    (2, 40, 5),   # 2^5=32 <= 39 < 64
    (2, 3, 1),
    (2, 2, 0),    # only one CPT: no full level-1 span
    (4, 40, 2),   # 16 <= 39 < 64
    (8, 40, 1),
    (8, 9, 1),    # 8 <= 8: boundary exactly fits
    (8, 8, 0),
])
def test_max_level(alpha, length, expected):
    assert max_level_for(alpha, length) == expected


@pytest.mark.parametrize("alpha", [2, 3, 4, 8])
def test_build_record_count_is_geometric(env, reader, alpha):
    """Records per level l = (L-1) // alpha^l — the geometric series
    bounding total storage by (L-1)/(alpha-1)."""
    index = build_index(env, reader, alpha)
    expected = sum(
        (LENGTH - 1) // alpha ** lvl
        for lvl in range(1, index.max_level + 1)
    )
    count = sum(1 for _ in index.tree.items()) - 1  # minus metadata
    assert count == expected
    assert count < (LENGTH - 1) / (alpha - 1)


def test_every_record_matches_stepwise_compose(env, reader):
    """Each stored span CPT equals the step-by-step composition of the
    base CPTs it covers."""
    index = build_index(env, reader, alpha=2)
    for level in range(1, index.max_level + 1):
        span = 2 ** level
        for start in range(0, LENGTH - 1 - span + 1, span):
            record = index._fetch(level, start)
            want = stepwise(reader, start, start + span)
            assert record.approx_equal(want, tol=1e-12), (level, start)


def test_build_rejects_length_mismatch(env, reader):
    index = MCIndex(env.open_tree("bad__mc"), alpha=2, length=LENGTH + 5)
    with pytest.raises(CatalogError, match="length"):
        index.build(reader)


def test_meta_round_trip_and_verify(env, reader):
    index = build_mc(env, "s", reader, alpha=4)
    meta = index.read_meta()
    assert meta == {"alpha": 4, "length": LENGTH,
                    "max_level": index.max_level, "conditioned": False,
                    "record": RECORD_VERSION}
    reopened = open_mc(env, "s", alpha=4, length=LENGTH)
    assert reopened.max_level == index.max_level

    with pytest.raises(CatalogError, match="alpha"):
        MCIndex(env.open_tree("s__mc", create=False),
                alpha=2, length=LENGTH).verify_meta()
    with pytest.raises(CatalogError, match="length"):
        MCIndex(env.open_tree("s__mc", create=False),
                alpha=4, length=LENGTH + 1).verify_meta()
    with pytest.raises(CatalogError, match="conditioned"):
        MCIndex(env.open_tree("s__mc", create=False), alpha=4,
                length=LENGTH, accept_states={0}).verify_meta()


def test_open_refuses_an_index_of_another_record_format(env, reader):
    """An index written before the CSR record format has no "record"
    key: opening it names both versions instead of failing mid-query."""
    index = build_mc(env, "s", reader, alpha=4)
    meta = index.read_meta()
    del meta["record"]
    index.tree.put(META_KEY, json.dumps(meta).encode("utf-8"))
    with pytest.raises(CatalogError, match="format 1, expected 2"):
        open_mc(env, "s", alpha=4, length=LENGTH)


def test_alpha_below_two_rejected(env):
    with pytest.raises(ValueError, match="alpha"):
        MCIndex(env.open_tree("x__mc"), alpha=1, length=LENGTH)


def test_missing_record_raises(env, reader):
    index = MCIndex(env.open_tree("empty__mc"), alpha=2, length=LENGTH)
    with pytest.raises(CatalogError, match="missing record"):
        index._fetch(1, 0)


# ---------------------------------------------------------------------------
# Gap traversal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [2, 4])
@pytest.mark.parametrize("start,end", [
    (0, 39), (0, 32), (1, 2), (3, 29), (7, 8), (5, 37), (0, 1), (17, 23),
])
def test_compute_cpt_equals_stepwise(env, reader, alpha, start, end):
    index = build_index(env, reader, alpha)
    got = index.compute_cpt(start, end, reader)
    assert got.approx_equal(stepwise(reader, start, end), tol=1e-12)


def test_aligned_power_span_is_one_lookup(env, reader):
    index = build_index(env, reader, alpha=2)
    stats = MCLookupStats()
    index.compute_cpt(0, 32, reader, stats=stats)
    assert (stats.lookups, stats.base_cpts_read,
            stats.compositions) == (1, 0, 0)


def test_single_step_gap_reads_one_base_cpt(env, reader):
    index = build_index(env, reader, alpha=2)
    stats = MCLookupStats()
    index.compute_cpt(10, 11, reader, stats=stats)
    assert (stats.lookups, stats.base_cpts_read) == (0, 1)
    assert stats.pieces == 1


def test_min_level_above_max_forces_raw_steps(env, reader):
    """Omitting every level (Fig 11a's extreme) degrades gracefully to
    per-timestep CPT reads — still exact."""
    index = build_index(env, reader, alpha=2)
    stats = MCLookupStats()
    got = index.compute_cpt(4, 20, reader,
                            min_level=index.max_level + 1, stats=stats)
    assert (stats.lookups, stats.base_cpts_read) == (0, 16)
    assert stats.compositions == 15
    assert got.approx_equal(stepwise(reader, 4, 20), tol=1e-12)


def test_compositions_are_pieces_minus_one(env, reader):
    index = build_index(env, reader, alpha=2)
    stats = MCLookupStats()
    index.compute_cpt(3, 37, reader, stats=stats)
    assert stats.compositions == stats.pieces - 1
    assert stats.lookups > 0 and stats.base_cpts_read > 0


@pytest.mark.parametrize("start,end", [(-1, 5), (5, 5), (8, 3), (0, 40)])
def test_out_of_range_span_raises(env, reader, start, end):
    index = build_index(env, reader, alpha=2)
    with pytest.raises(StreamError):
        index.compute_cpt(start, end, reader)


def test_stats_merge_accumulates():
    a = MCLookupStats(lookups=2, compositions=1, base_cpts_read=3)
    a.merge(MCLookupStats(lookups=1, compositions=4, base_cpts_read=5))
    assert (a.lookups, a.compositions, a.base_cpts_read) == (3, 5, 8)
    assert a.pieces == 11


def test_registry_counters_track_traversal(env, reader):
    registry = MetricsRegistry()
    index = MCIndex(env.open_tree("m__mc"), alpha=2, length=LENGTH,
                    registry=registry)
    index.build(reader)
    stats = MCLookupStats()
    index.compute_cpt(3, 37, reader, stats=stats)
    counters = registry.snapshot()["counters"]
    assert counters["mc.lookups{tree=m__mc}"] == stats.lookups
    assert counters["mc.base_cpts{tree=m__mc}"] == stats.base_cpts_read
    assert counters["mc.compositions{tree=m__mc}"] == stats.compositions
    assert counters["mc.records_built{tree=m__mc}"] > 0


# ---------------------------------------------------------------------------
# Conditioned variant (§3.3.2)
# ---------------------------------------------------------------------------

def conditioned_index(env, reader, accept, alpha=2, name="c__mc"):
    index = MCIndex(env.open_tree(name), alpha=alpha, length=LENGTH,
                    accept_states=frozenset(accept))
    index.build(reader)
    return index


def masked_stepwise(reader, start, end, accept):
    """Interior-masked, final-step-unmasked reference composition."""
    acc = None
    for t in range(start + 1, end + 1):
        cpt = reader.cpt_into(t)
        if t != end:
            cpt = cpt.mask_destinations(accept)
        acc = cpt if acc is None else acc.compose(cpt)
    return acc


@pytest.mark.parametrize("start,end", [(0, 39), (3, 29), (7, 8), (0, 1)])
def test_conditioned_cpt_masks_interior_only(env, reader, start, end):
    accept = {0, 2}
    index = conditioned_index(env, reader, accept)
    got = index.compute_conditioned_cpt(start, end, reader)
    assert got.approx_equal(masked_stepwise(reader, start, end, accept),
                            tol=1e-12)


def test_conditioned_cpt_is_substochastic_then_normalizes(env, reader):
    accept = {0, 1, 2}
    index = conditioned_index(env, reader, accept)
    raw = index.compute_conditioned_cpt(0, 8, reader)
    # Lost row mass = probability of leaving the loop: sub-stochastic.
    masses = [row.total_mass for _, row in raw.rows()]
    assert masses, "masked product collapsed to the empty CPT"
    assert any(m < 1.0 - 1e-9 for m in masses)
    norm = index.compute_conditioned_cpt(0, 8, reader, normalize=True)
    assert norm.is_stochastic(tol=1e-9)


def test_conditioned_single_step_is_raw_cpt(env, reader):
    """A length-1 run has no interior: the boundary CPT is unmasked."""
    index = conditioned_index(env, reader, {0})
    got = index.compute_conditioned_cpt(10, 11, reader)
    assert got.approx_equal(reader.cpt_into(11), tol=1e-15)


def test_conditioned_methods_enforce_variant(env, reader):
    plain = build_index(env, reader, alpha=2)
    with pytest.raises(CatalogError, match="not conditioned"):
        plain.compute_conditioned_cpt(0, 5, reader)
    cond = conditioned_index(env, reader, {0})
    with pytest.raises(CatalogError, match="conditioned"):
        cond.compute_cpt(0, 5, reader)
