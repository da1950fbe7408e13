"""The leaf-packing B+ tree writer against the per-entry writer it
replaced (``reference_btree_writer``): the same file, byte for byte,
from the same entries, and the same error from the same bad input."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_btree_writer import use_reference_writer
from repro.errors import StorageError
from repro.storage import FixedRows, StorageEnvironment, btree

PAGE_SIZES = st.integers(128, 8192)
#: Entries the writer takes at a time: tiny batches carry leaves over
#: from one batch to the next.
BATCHES = st.sampled_from([1, 2, 7, 64, btree._BATCH])


def tree_bytes(root, page_size, items, reference=False, batch=btree._BATCH):
    """The file a bulk load of ``items`` writes, or the error it raises
    (with the tree's entry count after it)."""
    with StorageEnvironment(root, page_size=page_size) as env:
        tree = env.open_tree("t")
        if reference:
            use_reference_writer(tree)
        try:
            with mock.patch.object(btree, "_BATCH", batch):
                tree.bulk_load(items)
        except (StorageError, TypeError) as exc:
            return type(exc), str(exc), len(tree), env.exists("t")
        assert tree.check().clean
        with open(os.path.join(root, "t.btree"), "rb") as f:
            return f.read()


def both(page_size, new_items, reference_items, batch=btree._BATCH):
    with tempfile.TemporaryDirectory() as a, \
            tempfile.TemporaryDirectory() as b:
        return (tree_bytes(a, page_size, new_items, batch=batch),
                tree_bytes(b, page_size, reference_items, reference=True))


@st.composite
def sorted_pairs(draw):
    """``(key, value)`` pairs in strictly increasing key order for one
    page size: values short, around the inline limit (some spill), or
    pages long."""
    page_size = draw(PAGE_SIZES)
    max_key = max(24, page_size // 16)
    inline = page_size // 4
    sizes = st.one_of(st.integers(0, 40),
                      st.integers(inline - 3, inline + 3),
                      st.integers(0, 3 * page_size))
    keys = sorted(draw(st.sets(st.binary(max_size=max_key), max_size=300)))
    values = [bytes([i % 251]) * draw(sizes) for i in range(len(keys))]
    return page_size, list(zip(keys, values))


@settings(max_examples=60, deadline=None)
@given(sorted_pairs(), BATCHES)
def test_pairs_write_the_reference_bytes(case, batch):
    page_size, items = case
    new, reference = both(page_size, items, items, batch)
    assert isinstance(new, bytes) and new == reference


@settings(max_examples=60, deadline=None)
@given(PAGE_SIZES, st.integers(0, 700), st.data(), BATCHES)
def test_fixed_width_rows_write_the_reference_bytes(page_size, n, data,
                                                    batch):
    key_width = data.draw(st.integers(1, max(24, page_size // 16)))
    value_width = data.draw(st.integers(0, page_size // 4))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # Few distinct leading bytes, so keys share prefixes; one row per key.
    rows = rng.integers(0, 3, size=(n, key_width + value_width),
                        dtype=np.uint8)
    rows.view(f"S{rows.shape[1]}").reshape(-1).sort()
    keys = rows[:, :key_width]
    first = np.ones(n, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    rows = rows[first]
    pairs = [(row[:key_width].tobytes(), row[key_width:].tobytes())
             for row in rows]
    new, reference = both(page_size, FixedRows(rows, key_width), pairs,
                          batch)
    assert isinstance(new, bytes) and new == reference


def test_empty_input_writes_the_reference_bytes():
    for items in ([], FixedRows(np.zeros((0, 9), dtype=np.uint8), 9)):
        new, reference = both(512, items, [])
        assert isinstance(new, bytes) and new == reference


def test_batch_boundaries_write_the_reference_bytes():
    """Thousands of entries, some spilling, cross the writer's batches."""
    items = [(i.to_bytes(4, "big"), b"v" * (300 if i % 97 == 0 else i % 50))
             for i in range(5000)]
    new, reference = both(256, items, items)
    assert isinstance(new, bytes) and new == reference


@st.composite
def bad_pairs(draw):
    """Sorted pairs with one to three faults: an entry out of order or
    repeating the key before it, an oversize key, a key or a value that
    is not bytes."""
    page_size = draw(st.sampled_from([128, 512, 4096]))
    max_key = max(24, page_size // 16)
    n = draw(st.integers(1, 200))
    items = [(i.to_bytes(4, "big"), b"x" * (i % 40)) for i in range(n)]
    sorted_items = list(items)
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(
            ["unsorted", "duplicate", "long key", "str key", "int key",
             "str value", "none value"]))
        # An empty key sorts before every other: out of order past 0.
        at = draw(st.integers(fault in ("unsorted", "duplicate"), n))
        if at == n:
            continue
        key, value = sorted_items[at]
        items[at] = {
            "unsorted": (b"", value),
            "duplicate": (sorted_items[at - 1][0], value),
            "long key": (key * max_key, value),
            "str key": (key.hex(), value),
            "int key": (at, value),
            "str value": (key, "value"),
            "none value": (key, None),
        }[fault]
    if items == sorted_items:
        items[-1] = (items[-1][0], None)
    return page_size, items


@settings(max_examples=80, deadline=None)
@given(bad_pairs(), BATCHES)
def test_bad_pairs_raise_the_reference_error(case, batch):
    page_size, items = case
    new, reference = both(page_size, items, items, batch)
    assert new == reference
    assert new[0] is StorageError
    assert new[2:] == (0, False)  # nothing loaded, no file


def test_bad_rows_raise_the_reference_error():
    rows = np.arange(40, dtype=np.uint8).reshape(10, 4)
    pairs = [(row[:2].tobytes(), row[2:].tobytes()) for row in rows]
    # Out of order.
    rows[[3, 6]], pairs[3], pairs[6] = rows[[6, 3]], pairs[6], pairs[3]
    new, reference = both(512, FixedRows(rows, 2), pairs)
    assert new == reference and new[0] is StorageError
    # A key equal to the one before it.
    rows[[3, 6]], pairs[3], pairs[6] = rows[[6, 3]], pairs[6], pairs[3]
    rows[5, :2] = rows[4, :2]
    pairs[5] = (pairs[4][0], pairs[5][1])
    new, reference = both(512, FixedRows(rows, 2), pairs)
    assert new == reference and new[0] is StorageError
    assert "not strictly sorted" in new[1]
    # A key wider than the page's key limit (24 bytes at 128).
    wide = np.zeros((3, 30), dtype=np.uint8)
    new, reference = both(128, FixedRows(wide, 25),
                          [(row[:25].tobytes(), row[25:].tobytes())
                           for row in wide])
    assert new == reference and new[0] is StorageError


def test_rows_must_fit_inline():
    rows = np.zeros((2, 8 + 200), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as root:
        with pytest.raises(StorageError, match="inline"):
            with StorageEnvironment(root, page_size=512) as env:
                env.open_tree("t").bulk_load(FixedRows(rows, 8))


def test_rewrite_keeps_the_old_contents_on_bad_input(tmp_path):
    old = [(i.to_bytes(2, "big"), b"old") for i in range(100)]
    with StorageEnvironment(str(tmp_path), page_size=256) as env:
        tree = env.open_tree("t")
        tree.bulk_load(old)
        for bad in ([(b"b", b"1"), (b"a", b"2")], [(b"a", 1)],
                    [(b"k" * 25, b"v")], [("a", b"v")]):
            with pytest.raises(StorageError) as raised:
                tree.rewrite(bad)
            reference = env.open_tree("ref")
            use_reference_writer(reference)
            with pytest.raises(StorageError) as expected:
                reference.bulk_load(bad)
            assert str(raised.value).replace("'t'", "'ref'") == \
                str(expected.value)
            assert list(tree.items()) == old
        assert tree.check().clean
