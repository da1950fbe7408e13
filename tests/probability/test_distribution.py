"""SparseDistribution: sparse support, mass operations, serialization;
marginal blocks and the batch encoders under them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_codec import (encode_uvarint, reference_frame,
                             reference_marginal_record)
from repro.errors import StorageError, StreamError
from repro.probability import (MarginalBlock, SparseDistribution,
                               encode_marginals)
from repro.storage.record import pack_frames, unpack_chunks, uvarint_digits


def test_construction_drops_zeros_and_rejects_negatives():
    d = SparseDistribution({0: 0.5, 1: 0.0, 2: 0.5})
    assert d.support() == {0, 2}
    assert len(d) == 2
    assert 1 not in d
    with pytest.raises(StreamError):
        SparseDistribution({0: -0.1})


def test_empty_distribution_is_falsy():
    empty = SparseDistribution()
    assert not empty
    assert empty.total_mass == 0.0
    with pytest.raises(StreamError):
        empty.normalize()
    with pytest.raises(StreamError):
        empty.max_state()


def test_point_and_uniform():
    assert SparseDistribution.point(3).prob(3) == 1.0
    u = SparseDistribution.uniform([1, 2, 3, 4])
    assert u.is_normalized()
    assert u.prob(2) == pytest.approx(0.25)


def test_normalize_and_mass():
    d = SparseDistribution({0: 2.0, 1: 6.0})
    assert not d.is_normalized()
    assert d.total_mass == pytest.approx(8.0)
    n = d.normalize()
    assert n.is_normalized()
    assert n.prob(1) == pytest.approx(0.75)
    # the original is untouched (immutability)
    assert d.prob(1) == pytest.approx(6.0)


def test_add_restrict_mass_on():
    a = SparseDistribution({0: 0.2, 1: 0.3})
    b = SparseDistribution({1: 0.1, 2: 0.4})
    s = a.add(b)
    assert s.prob(1) == pytest.approx(0.4)
    assert s.support() == {0, 1, 2}
    r = s.restrict_to({1, 2})
    assert r.support() == {1, 2}
    assert s.mass_on({0, 2}) == pytest.approx(0.6)


def test_max_state_and_top():
    d = SparseDistribution({0: 0.1, 1: 0.6, 2: 0.3})
    assert d.max_state() == (1, 0.6)
    assert d.top(2) == [(1, 0.6), (2, 0.3)]


def test_serialization_roundtrip():
    d = SparseDistribution({5: 0.125, 1000000: 0.875})
    assert SparseDistribution.from_bytes(d.to_bytes()) == d
    empty = SparseDistribution()
    assert SparseDistribution.from_bytes(empty.to_bytes()) == empty


# ---------------------------------------------------------------------------
# Marginal blocks and their batch encoder
# ---------------------------------------------------------------------------

_STATES = st.one_of(st.integers(0, 300), st.integers(0, 2 ** 63 - 1),
                    st.sampled_from([0, 127, 128, 16383, 16384]))
_DISTS = st.lists(st.dictionaries(
    _STATES, st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    max_size=8), max_size=12)


@settings(max_examples=150, deadline=None)
@given(dists=_DISTS)
def test_encode_marginals_matches_the_per_pair_encoder(dists):
    """Every record of a block, ids of one to nine uvarint bytes and
    empty marginals among them, equals the per-pair encoder's, and a
    record decodes back to its distribution."""
    block = MarginalBlock.of(dists)
    records = encode_marginals(block)
    assert records == [reference_marginal_record(d) for d in dists]
    assert [SparseDistribution.from_bytes(r) for r in records] == \
        [SparseDistribution(d) for d in dists]


def test_marginal_block_keeps_each_producers_order():
    dists = [{3: 0.25, 1: 0.75}, {}, {0: 1.0}]
    block = MarginalBlock.of(dists)
    assert block.offsets.tolist() == [0, 2, 2, 3]
    assert block.states.tolist() == [3, 1, 0]
    assert block.probs.tolist() == [0.25, 0.75, 1.0]
    assert SparseDistribution(dists[0]).to_bytes() == \
        reference_marginal_record(dists[0])


def test_encode_marginals_refuses_a_negative_state():
    with pytest.raises(StorageError, match="negative"):
        SparseDistribution.wrap({-1: 1.0}).to_bytes()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(0, 2 ** 63 - 1), max_size=20))
def test_uvarint_digits_match_the_scalar_encoder(values):
    lengths, digits = uvarint_digits(np.array(values, np.int64))
    assert [bytes(row[:k]) for row, k in zip(digits, lengths)] == \
        [encode_uvarint(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(chunks=st.lists(st.binary(max_size=300), max_size=20),
       data=st.data())
def test_pack_frames_matches_the_per_chunk_encoder(chunks, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(chunks)),
                                     max_size=5)))
    bounds = [0] + cuts + [len(chunks)]
    counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    frames = pack_frames(chunks, counts)
    assert frames == [reference_frame(chunks[lo:hi])
                      for lo, hi in zip(bounds, bounds[1:])]
    assert [unpack_chunks(f)[0] for f in frames] == \
        [chunks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
