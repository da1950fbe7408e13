"""CPT: apply, compose (the chain rule), masking, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError, StreamError
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


# ----------------------------------------------------------------------
# The CSR record codec: adversarial inputs raise StorageError, never a
# bare NumPy ValueError or a garbage CPT
# ----------------------------------------------------------------------

def _records():
    """Valid records of every id width (1, 2 and 4 bytes)."""
    return [
        CPT().to_bytes(),
        CPT({0: {0: 0.7, 1: 0.3}, 1: {1: 1.0}}).to_bytes(),
        CPT({300: {2: 0.5, 65_535: 0.5}}).to_bytes(),
        CPT({0: {70_000: 1.0}, 70_001: {0: 0.25, 1: 0.75}}).to_bytes(),
    ]


@pytest.mark.parametrize("data", _records())
def test_every_truncation_raises_storage_error(data):
    for n in range(len(data)):
        with pytest.raises(StorageError):
            CPT.from_bytes(data[:n])


@pytest.mark.parametrize("data", _records())
@pytest.mark.parametrize("extra", [b"\x00", b"\x01" * 5, b"\x00" * 9,
                                   b"\x00" * 10, b"\x00" * 12])
def test_trailing_bytes_raise_storage_error(data, extra):
    """Whole extra entries (9, 10 or 12 bytes at widths 1, 2, 4) are
    caught by the row lengths, not just by a ragged tail."""
    with pytest.raises(StorageError):
        CPT.from_bytes(data + extra)


def test_bad_width_code_raises_storage_error():
    good = CPT({0: {1: 1.0}}).to_bytes()
    with pytest.raises(StorageError, match="width"):
        CPT.from_bytes(bytes([good[0] | 3]) + good[1:])


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_storage_error(data):
    try:
        CPT.from_bytes(data)
    except StorageError:
        pass


_IDS = st.one_of(st.integers(0, 300), st.integers(65_530, 65_540),
                 st.integers(0, 2**32 - 1))
_WEIGHTS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def sparse_cpts(draw, ids=_IDS, max_rows=8):
    return CPT(draw(st.dictionaries(
        ids, st.dictionaries(ids, _WEIGHTS, min_size=1, max_size=8),
        max_size=max_rows)))


def _triples(cpt):
    src, lens, dst, val = cpt.arrays()
    return sorted(zip(np.repeat(src, lens).tolist(), dst.tolist(),
                      val.tolist()))


@settings(max_examples=150, deadline=None)
@given(cpt=sparse_cpts())
def test_record_round_trip(cpt):
    """Every width round-trips: the lazy row view equals the source
    mapping, and the decoded CSR arrays hold the same entries as the
    arrays built from the mapping."""
    back = CPT.from_bytes(cpt.to_bytes())
    assert back == cpt
    assert dict(back.rows()) == dict(cpt.rows())
    assert len(back) == len(cpt)
    assert _triples(back) == _triples(cpt)
    assert back.to_bytes() == cpt.to_bytes()


def test_row_length_256_widens_the_record():
    """A row of 256 entries with ids below 256 needs 2-byte ints: the
    width covers row lengths as well as ids."""
    full = CPT({0: {d: 1 / 256 for d in range(256)}})
    data = full.to_bytes()
    assert len(data) == 1 + 2 * 2 + 256 * (2 + 8)
    assert CPT.from_bytes(data) == full


@settings(max_examples=100, deadline=None)
@given(cpt=sparse_cpts(ids=st.integers(0, 127), max_rows=15))
def test_small_record_length_is_pinned(cpt):
    """Below 128 ids and 16 rows a record is 1 + 2r + 9·nnz bytes, the
    same length as the varint record format it replaced."""
    assert len(cpt.to_bytes()) == 1 + 2 * len(cpt) + 9 * cpt.num_entries()


def test_ids_beyond_four_bytes_are_refused():
    with pytest.raises(StorageError, match="does not fit"):
        CPT({2**32: {0: 1.0}}).to_bytes()
