"""CPT: apply, compose (the chain rule), masking, and the record codec."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_codec import reference_record
from repro.errors import StorageError
from repro.probability import (CPT, CPTBlock, SparseDistribution,
                               decode_block, encode_block)


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
    assert cpt.num_entries() == 2
    assert len(cpt) == 2
    assert not CPT()


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
    power = chain
    for _ in range(9):
        power = power.compose(chain)
    assert power.is_stochastic()
    # After many steps of an irreducible chain, every destination reachable.
    assert all(len(power.row(s)) == 3 for s in (0, 1, 2))


def test_is_stochastic_checks_every_row(chain):
    assert chain.is_stochastic()
    assert not CPT({0: {0: 2.0, 1: 2.0}, 1: {1: 1.0}}).is_stochastic()


def test_mask_destinations_is_substochastic(chain):
    masked = chain.mask_destinations({0, 1})
    assert not masked.is_stochastic()
    # Lost mass per row is exactly the probability of leaving the loop.
    assert masked.row(1).total_mass == pytest.approx(0.6)
    assert masked.row(0).total_mass == pytest.approx(1.0)
    assert all(2 not in row for _, row in masked.rows())


def test_serialization_roundtrip(chain):
    assert CPT.from_bytes(chain.to_bytes()) == chain
    assert CPT.from_bytes(CPT().to_bytes()) == CPT()


# ----------------------------------------------------------------------
# The CSR record codec: adversarial inputs raise StorageError, never a
# bare NumPy ValueError or a garbage CPT
# ----------------------------------------------------------------------

def _cpts():
    """CPTs whose records have every id width (1, 2 and 4 bytes)."""
    return [
        CPT(),
        CPT({0: {0: 0.7, 1: 0.3}, 1: {1: 1.0}}),
        CPT({300: {2: 0.5, 65_535: 0.5}}),
        CPT({0: {70_000: 1.0}, 70_001: {0: 0.25, 1: 0.75}}),
    ]


def _records():
    """Valid records of every id width (1, 2 and 4 bytes)."""
    return [cpt.to_bytes() for cpt in _cpts()]


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
    for decode in (CPT.from_bytes, lambda d: decode_block([d])):
        try:
            decode(data)
        except StorageError:
            pass


def _block_arrays(block, k):
    """The ``(src, row_len, dst, val)`` of the ``k``-th CPT of a block."""
    rows = block.step == k
    lo = int(block.row_len[block.step < k].sum())
    hi = lo + int(block.row_len[rows].sum())
    return (block.src[rows], block.row_len[rows], block.dst[lo:hi],
            block.val[lo:hi])


@pytest.mark.parametrize("picks", [[0], [1], [2], [3], [1, 1, 0, 1],
                                   [2, 2], [3, 3], [1, 2, 3, 0, 2, 1]],
                         ids=["empty", "width-1", "width-2", "width-4",
                              "width-1-and-empty", "width-2x2", "width-4x2",
                              "mixed"])
def test_decode_block_equals_per_record_decode(picks):
    """A block of records of 1-, 2- and 4-byte ids (one width or mixed)
    holds, per step, exactly the rows of the CPT that record was
    written from: the mapping is the oracle, not another decoder."""
    cpts = [_cpts()[i] for i in picks]
    block = decode_block([cpt.to_bytes() for cpt in cpts])
    assert block.steps == len(cpts)
    for k, cpt in enumerate(cpts):
        src, lens, dst, val = _block_arrays(block, k)
        assert dict(zip(src.tolist(), lens.tolist())) == \
            {s: len(row) for s, row in cpt.rows()}
        got = zip(np.repeat(src, lens).tolist(), dst.tolist(), val.tolist())
        assert sorted(got) == sorted(
            (s, d, p) for s, row in cpt.rows() for d, p in row.items())


def _corrupt_records():
    good = CPT({0: {0: 0.7, 1: 0.3}, 1: {1: 1.0}}).to_bytes()
    lens_at = 1 + 2  # header, then two 1-byte source ids
    return {
        "width": bytes([good[0] | 3]) + good[1:],
        "truncated": good[:3],
        "trailing": good + b"\x00",
        "row-lengths": good[:lens_at] + bytes([2, 2]) + good[lens_at + 2:],
    }


@pytest.mark.parametrize("case", sorted(_corrupt_records()))
def test_decode_block_raises_on_every_corrupt_record(case):
    """Each check of ``CPT.from_bytes`` (width code, truncation, trailing
    bytes, row lengths that miss the entry count) runs on every record
    of a block, wherever the bad record sits."""
    bad = _corrupt_records()[case]
    with pytest.raises(StorageError):
        CPT.from_bytes(bad)
    good = _records()[1]
    for records in ([bad], [good, bad], [bad, good, good]):
        with pytest.raises(StorageError):
            decode_block(records)


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


#: One row of 256 entries: its ids fit a byte, its length does not.
_FULL_ROW = CPT({0: {d: 1 / 256 for d in range(256)}})


@settings(max_examples=150, deadline=None)
@given(cpts=st.lists(st.one_of(sparse_cpts(),
                               st.sampled_from(_cpts() + [_FULL_ROW])),
                     min_size=1, max_size=6))
@example(cpts=_cpts() + [_FULL_ROW, CPT()])
def test_encode_block_matches_the_struct_encoder(cpts):
    """A block of CPTs of mixed id widths (ids past 256 and 65,536, a
    256-entry row, empty CPTs) encodes to the struct oracle's records,
    and decoding then re-encoding the records gives them back."""
    records = encode_block(CPTBlock.of(cpts))
    assert records == [reference_record(cpt) for cpt in cpts]
    assert encode_block(decode_block(records)) == records


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
