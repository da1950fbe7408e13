"""Order preservation and roundtripping of the key encoding."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyEncodingError
from repro.storage.keyenc import (
    Desc,
    FixedKey,
    decode_key,
    encode_key,
    encode_keys,
    prefix_upper_bound,
)


def assert_order_matches(tuples):
    """Encoded byte order must equal tuple order for every pair."""
    encoded = [(encode_key(t), t) for t in tuples]
    by_bytes = [t for _, t in sorted(encoded, key=lambda kt: kt[0])]
    assert by_bytes == sorted(tuples)


def test_int_order_mixed_sign_and_magnitude():
    values = [-(2 ** 62), -1000000, -17, -1, 0, 1, 5, 4096, 2 ** 40, 2 ** 62]
    assert_order_matches([(v,) for v in values])


def test_int_range_check():
    encode_key((2 ** 63 - 1,))
    encode_key((-(2 ** 63),))
    with pytest.raises(KeyEncodingError):
        encode_key((2 ** 63,))
    with pytest.raises(KeyEncodingError):
        encode_key((-(2 ** 63) - 1,))


def test_float_order_mixed_sign():
    values = [float("-inf"), -1e300, -2.5, -1e-300, 0.0, 1e-300, 1.0, 2.5,
              1e300, float("inf")]
    assert_order_matches([(v,) for v in values])


def test_float_nan_rejected():
    with pytest.raises(KeyEncodingError):
        encode_key((float("nan"),))


def test_string_order_with_embedded_nulls_and_prefixes():
    values = ["", "a", "a\x00", "a\x00b", "aa", "ab", "b", "ba", "é", "😀"]
    assert_order_matches([(v,) for v in values])


def test_string_prefix_never_bleeds_into_next_component():
    # ("a", big) must sort before ("a\x00b", small): component boundaries win.
    assert encode_key(("a", 2 ** 40)) < encode_key(("a\x00b", 0))
    assert encode_key(("a",)) < encode_key(("a", 0)) < encode_key(("ab",))


def test_composite_tuple_order_random():
    rng = random.Random(7)
    tuples = [
        (rng.randint(0, 5), rng.randint(-1000, 1000), rng.random())
        for _ in range(500)
    ]
    assert_order_matches(tuples)


def test_roundtrip():
    cases = [
        (),
        (42,),
        (-42, 3.5, "hello"),
        ("a\x00b", b"\x00\xff", None, True),
        (0, -0.0, "", b""),
    ]
    for case in cases:
        decoded = decode_key(encode_key(case))
        assert len(decoded) == len(case)
        for got, want in zip(decoded, case):
            if isinstance(want, bool):
                assert got == int(want)
            else:
                assert got == want


def test_desc_inverts_order():
    probs = [0.0, 0.1, 0.25, 0.5, 0.99, 1.0]
    encoded = sorted(encode_key((5, Desc(p), t)) for t, p in enumerate(probs))
    decoded = [decode_key(e) for e in encoded]
    assert [d[1] for d in decoded] == sorted(probs, reverse=True)
    # Desc decodes to the plain value, not a wrapper.
    assert decode_key(encode_key((Desc(3),))) == (3,)
    assert decode_key(encode_key((Desc(0.75),))) == (0.75,)


def test_desc_rejects_variable_width():
    with pytest.raises(KeyEncodingError):
        encode_key((Desc("nope"),))


def test_prefix_upper_bound_covers_exactly_the_prefix():
    rng = random.Random(3)
    prefix = encode_key((3,))
    hi = prefix_upper_bound(prefix)
    inside = [encode_key((3, rng.randint(-50, 2 ** 60))) for _ in range(100)]
    outside = [encode_key((v, 0)) for v in (2, 4, 2 ** 50)]
    assert all(prefix <= k < hi for k in inside)
    assert all(not prefix <= k < hi for k in outside)


def test_prefix_upper_bound_carries_past_ff():
    assert prefix_upper_bound(b"a\xff\xff") == b"b"
    with pytest.raises(KeyEncodingError):
        prefix_upper_bound(b"\xff\xff")


def test_encode_rejects_bare_values_and_unknown_types():
    with pytest.raises(KeyEncodingError):
        encode_key("bare string")
    with pytest.raises(KeyEncodingError):
        encode_key(([1, 2],))


def test_decode_rejects_corrupt_keys():
    with pytest.raises(KeyEncodingError):
        decode_key(b"\x10\x00")  # truncated int payload
    with pytest.raises(KeyEncodingError):
        decode_key(b"\x99")  # unknown tag


# ---------------------------------------------------------------------------
# encode_keys: the array counterpart of encode_key
# ---------------------------------------------------------------------------

INT_MIN, INT_MAX = -(2 ** 63), 2 ** 63 - 1
INTS = st.one_of(st.integers(INT_MIN, INT_MAX),
                 st.sampled_from([INT_MIN, INT_MAX, -1, 0, 1]))
PROBS = st.one_of(st.floats(allow_nan=False),
                  st.sampled_from([1.0, 0.0, -0.0, 5e-324, 2.2e-308,
                                   math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(INTS, PROBS, INTS), max_size=20))
def test_encode_keys_matches_encode_key_row_by_row(rows):
    """Row by row, and :class:`FixedKey` decodes the rows back."""
    codes = np.array([c for c, _, _ in rows], dtype=np.int64)
    probs = np.array([p for _, p, _ in rows], dtype=np.float64)
    times = np.array([t for _, _, t in rows], dtype=np.int64)
    keys = encode_keys((codes, Desc(probs), times))
    assert keys.shape == (len(rows), 28)
    assert [bytes(k) for k in keys] == \
        [encode_key((c, Desc(p), t)) for c, p, t in rows]
    got = FixedKey(int, Desc(float), int).decode(keys.tobytes())
    assert [a.tolist() for a in got] == [codes.tolist(), probs.tolist(),
                                         times.tolist()]
    assert got[1].view(np.int64).tolist() == probs.view(np.int64).tolist()
    keys = encode_keys((codes, times))
    assert keys.shape == (len(rows), 18)
    assert [bytes(k) for k in keys] == [encode_key((c, t)) for c, _, t in rows]
    assert [a.tolist() for a in FixedKey(int, int).decode(keys.tobytes())] \
        == [codes.tolist(), times.tolist()]


def test_encode_keys_refuses_what_encode_key_refuses():
    with pytest.raises(KeyEncodingError):
        encode_key((Desc(math.nan),))
    with pytest.raises(KeyEncodingError, match="NaN"):
        encode_keys((np.arange(2), Desc(np.array([0.5, math.nan]))))
    for beyond in (2 ** 63, 2 ** 64, -(2 ** 63) - 1):
        with pytest.raises(KeyEncodingError):
            encode_key((beyond,))
        with pytest.raises(KeyEncodingError):
            encode_keys(([beyond],))


@pytest.mark.parametrize("columns", [
    (np.array([0.5]),),                     # a float column needs Desc
    (Desc(np.array([1], dtype=np.int64)),),  # Desc covers floats only
    (np.array(["a"]),),
    (np.arange(3), np.arange(2)),           # lengths differ
    (np.zeros((2, 2), dtype=np.int64),),    # not 1-D
])
def test_encode_keys_refuses_other_columns(columns):
    with pytest.raises(KeyEncodingError):
        encode_keys(columns)
