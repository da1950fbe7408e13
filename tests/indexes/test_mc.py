"""Unit tests for the MC index (§4.2.2, Algorithm 4): record layout,
metadata, greedy gap traversal, the conditioned variant, and misuse."""

import json
import random
from functools import reduce

import numpy as np
import pytest

from repro.errors import CatalogError, StreamError
from repro.indexes.builder import build_mc, open_mc
from repro.indexes import mc as mc_module
from repro.indexes.mc import META_KEY, MCIndex, MCLookupStats, max_level_for
from repro.probability import CPT, SparseDistribution
from repro.probability.cpt import RECORD_VERSION, densify
from repro.storage import StorageEnvironment, encode_key
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


def span_records(index):
    """``(level, start, span, record)`` of every stored span record."""
    for level in range(1, index.max_level + 1):
        span = index.alpha ** level
        for start in range(0, index.length - span, span):
            data = index.tree.get(encode_key((level, start)))
            yield level, start, span, data


@pytest.mark.parametrize("alpha", [2, 3, 4, 8])
def test_every_record_matches_stepwise_compose(env, reader, alpha):
    """Each stored span CPT equals the step-by-step composition of the
    base CPTs it covers."""
    index = build_index(env, reader, alpha)
    for level, start, span, data in span_records(index):
        want = stepwise(reader, start, start + span)
        assert CPT.from_bytes(data).approx_equal(want, tol=1e-12), \
            (level, start)


@pytest.mark.parametrize("alpha", [2, 3, 4])
def test_build_in_one_span_chunks_writes_the_same_records(env, reader,
                                                          monkeypatch,
                                                          alpha):
    """A float budget so small that a build chunk is exactly ``alpha``
    records builds byte-identical records to one chunk per level."""
    whole = build_index(env, reader, alpha)
    monkeypatch.setattr(mc_module, "BLOCK_FLOATS", 1)
    chunked = build_mc(env, "chunked", reader, alpha=alpha)
    assert list(chunked.tree.items()) == list(whole.tree.items())


@pytest.mark.parametrize("alpha", [2, 3])
def test_wide_stream_records_match_stepwise_product(tmp_path, wide_stream,
                                                    alpha):
    """On 42 states a build chunk holds a few spans only (8 records at
    alpha 2), so every level crosses many chunks; each record equals
    the dense product of the base CPTs it covers."""
    with StorageEnvironment(str(tmp_path), page_size=8192) as env:
        reader = write_stream(env, wide_stream, layout=Layout.SEPARATED)
        index = build_mc(env, "wide", reader, alpha=alpha)
        for level, start, span, data in span_records(index):
            pieces = reader.scan_cpts(start + 1, start + span + 1)
            assert pieces.approx_equal(CPT.from_bytes(data), tol=1e-12), \
                (level, start)


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
        index.compute_cpt(0, 2, reader)


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
    got = index.compute_cpt(0, 32, reader, stats=stats)
    assert (stats.lookups, stats.base_cpts_read, got.steps) == (1, 0, 1)


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
    assert (stats.lookups, stats.base_cpts_read, got.steps) == (0, 16, 16)
    assert got.approx_equal(stepwise(reader, 4, 20), tol=1e-12)


def test_block_holds_one_step_per_piece(env, reader):
    """The gap's pieces come back uncomposed, in order: one block step
    per stored record or raw CPT."""
    index = build_index(env, reader, alpha=2)
    stats = MCLookupStats()
    got = index.compute_cpt(3, 37, reader, stats=stats)
    assert got.steps == stats.pieces
    assert stats.lookups > 0 and stats.base_cpts_read > 0


@pytest.mark.parametrize("start,end", [(-1, 5), (5, 5), (8, 3), (0, 40)])
def test_out_of_range_span_raises(env, reader, start, end):
    index = build_index(env, reader, alpha=2)
    with pytest.raises(StreamError):
        index.compute_cpt(start, end, reader)


def test_build_mc_counts_records_built(env, reader):
    """``build_mc`` counts the span records it writes in the
    environment's registry; traversal costs live in the caller's
    :class:`MCLookupStats` only."""
    index = build_mc(env, "s", reader, alpha=2)
    stored = sum(1 for key, _ in index.tree.items() if key != META_KEY)
    counters = env.metrics.snapshot()["counters"]
    assert counters["mc.records_built{tree=s__mc}"] == stored > 0
    assert not any(name.startswith(("mc.lookups", "mc.base_cpts"))
                   for name in counters)


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


@pytest.mark.parametrize("raw", [False, True], ids=["records", "raw"])
@pytest.mark.parametrize("start,end", [(0, 39), (3, 29), (7, 8), (0, 1)])
def test_conditioned_cpt_masks_interior_only(env, reader, start, end, raw):
    """Stored (already masked) records and raw interior steps (every
    piece raw once ``min_level`` is above ``max_level``) are masked
    alike; the final step is not."""
    accept = {0, 2}
    index = conditioned_index(env, reader, accept)
    min_level = index.max_level + 1 if raw else 1
    stats = MCLookupStats()
    got = index.compute_conditioned_cpt(start, end, reader,
                                        min_level=min_level, stats=stats)
    if raw:
        assert (stats.lookups, stats.base_cpts_read) == (0, end - start)
    assert got.steps == stats.pieces
    assert got.approx_equal(masked_stepwise(reader, start, end, accept),
                            tol=1e-12)


def test_conditioned_cpt_is_substochastic(env, reader):
    accept = {0, 1, 2}
    index = conditioned_index(env, reader, accept)
    pieces = index.compute_conditioned_cpt(0, 8, reader)
    # Lost row mass = probability of leaving the loop: sub-stochastic.
    buf = np.empty(pieces.steps * NUM_STATES ** 2)
    (stack,) = densify(pieces, NUM_STATES, buf)
    masses = reduce(np.matmul, stack).sum(axis=1)
    masses = masses[masses > 0.0]
    assert masses.size, "masked product collapsed to zero"
    assert (masses < 1.0 - 1e-9).any()


def test_conditioned_build_on_no_state_stores_empty_records(env, reader):
    """An empty accept set masks every transition, unlike ``None`` (a
    plain index): every span record is the empty CPT."""
    index = conditioned_index(env, reader, set())
    assert index.is_conditioned
    records = [data for _, _, _, data in span_records(index)]
    assert records and all(CPT.from_bytes(data) == CPT()
                           for data in records)


def test_conditioned_build_on_every_state_equals_the_plain_index(env,
                                                                 reader):
    """Masking to every state keeps every transition: the records are
    byte for byte the plain index's."""
    cond = conditioned_index(env, reader, range(NUM_STATES))
    plain = build_index(env, reader, alpha=2)
    assert list(span_records(cond)) == list(span_records(plain))


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
