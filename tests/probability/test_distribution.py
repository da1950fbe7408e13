"""SparseDistribution: sparse support, mass operations, serialization."""

import pytest

from repro.errors import StreamError
from repro.probability import SparseDistribution


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
