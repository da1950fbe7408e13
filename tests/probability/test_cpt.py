"""CPT: apply, compose (the chain rule), masking, and validation."""

import pytest

from repro.errors import StreamError
from repro.probability import CPT, SparseDistribution, validate_cpt


@pytest.fixture
def chain():
    """A 3-state cyclic walk: mostly stay, sometimes step forward."""
    return CPT({
        0: {0: 0.7, 1: 0.3},
        1: {1: 0.6, 2: 0.4},
        2: {2: 0.5, 0: 0.5},
    })


def test_construction_accepts_mappings_and_drops_empty_rows():
    cpt = CPT({0: {1: 1.0}, 1: SparseDistribution({2: 1.0}), 2: {}})
    assert cpt.sources() == {0, 1}
    assert 2 not in cpt
    assert cpt.row(2) == SparseDistribution()  # absent rows read as empty
    assert cpt.destinations() == {1, 2}
    assert cpt.num_entries() == 2
    assert len(cpt) == 2
    assert not CPT()


def test_identity_is_a_fixed_point(chain):
    ident = CPT.identity([0, 1, 2])
    dist = SparseDistribution({0: 0.2, 2: 0.8})
    assert ident.apply(dist) == dist
    assert ident.compose(chain).approx_equal(chain)
    assert chain.compose(ident).approx_equal(chain)


def test_apply_propagates_one_step(chain):
    out = chain.apply(SparseDistribution({0: 0.5, 1: 0.5}))
    assert out.prob(0) == pytest.approx(0.35)
    assert out.prob(1) == pytest.approx(0.45)
    assert out.prob(2) == pytest.approx(0.2)
    assert out.is_normalized()


def test_apply_drops_mass_without_a_row(chain):
    out = chain.apply(SparseDistribution({0: 0.5, 99: 0.5}))
    assert out.total_mass == pytest.approx(0.5)


def test_compose_matches_two_applies(chain):
    """compose is the chain rule: (A∘B).apply(v) == B.apply(A.apply(v))."""
    other = CPT({0: {1: 1.0}, 1: {0: 0.5, 2: 0.5}, 2: {2: 1.0}})
    squared = chain.compose(other)
    for start in (0, 1, 2):
        v = SparseDistribution.point(start)
        assert squared.apply(v).approx_equal(other.apply(chain.apply(v)))
    assert squared.is_stochastic()


def test_compose_preserves_stochasticity_over_many_steps(chain):
    power = CPT.identity([0, 1, 2])
    for _ in range(10):
        power = power.compose(chain)
    assert power.is_stochastic()
    # After many steps of an irreducible chain, every destination reachable.
    assert all(len(power.row(s)) == 3 for s in (0, 1, 2))


def test_stochasticity_and_normalize_rows():
    ragged = CPT({0: {0: 2.0, 1: 2.0}, 1: {1: 1.0}})
    assert not ragged.is_stochastic()
    fixed = ragged.normalize_rows()
    assert fixed.is_stochastic()
    assert fixed.row(0).prob(0) == pytest.approx(0.5)


def test_mask_destinations_is_substochastic(chain):
    masked = chain.mask_destinations({0, 1})
    assert not masked.is_stochastic()
    # Lost mass per row is exactly the probability of leaving the loop.
    assert masked.row(1).total_mass == pytest.approx(0.6)
    assert masked.row(0).total_mass == pytest.approx(1.0)
    assert 2 not in masked.destinations()


def test_validate_cpt(chain):
    validate_cpt(chain)
    with pytest.raises(StreamError, match="mass"):
        validate_cpt(chain.mask_destinations({0, 1}))


def test_serialization_roundtrip(chain):
    assert CPT.from_bytes(chain.to_bytes()) == chain
    assert CPT.from_bytes(CPT().to_bytes()) == CPT()
