"""B+ tree behavior: bulk loading, whole-tree rewrite, range scans,
overflow, I/O costs."""

import random
from itertools import islice

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import FixedRows, StorageEnvironment, encode_key


@pytest.fixture
def env(tmp_path):
    with StorageEnvironment(str(tmp_path / "db"), page_size=512,
                            pool_pages=64) as env:
        yield env


def make_items(n, value=lambda i: f"value-{i}".encode()):
    return [(encode_key((i % 13, i)), value(i)) for i in range(n)]


def test_rewrite_matches_dict(env):
    """Upserts and deletes applied to a dict, each written back whole:
    the tree reads back exactly the dict every time."""
    tree = env.open_tree("t")
    rng = random.Random(1)
    reference = {}
    for _ in range(6):
        for _ in range(300):
            key = encode_key((rng.randint(0, 400),))
            reference[key] = bytes([rng.randint(0, 255)]) * rng.randint(0, 40)
        for key in rng.sample(sorted(reference), len(reference) // 4):
            del reference[key]
        assert tree.rewrite(sorted(reference.items())) == len(reference)
        for key, value in reference.items():
            assert tree.get(key) == value
        assert tree.get(encode_key((999,))) is None
        assert len(tree) == len(reference)
        assert list(tree.items()) == sorted(reference.items())
    assert tree.check().clean


def test_rewrite_builds_what_bulk_load_builds(env):
    """A rewrite leaves the same tree shape as a fresh bulk load, in a
    file of the same size: rewriting the same contents again does not
    grow the file."""
    items = sorted(make_items(2000))
    bulk = env.open_tree("bulk")
    bulk.bulk_load(items)
    tree = env.open_tree("t")
    tree.bulk_load(sorted(make_items(500, value=lambda i: b"old")))
    tree.rewrite(items)
    assert list(tree.items()) == items
    assert (tree.num_leaves, tree.height) == (bulk.num_leaves, bulk.height)
    pages = tree.pager.num_pages
    tree.rewrite(items)
    assert tree.pager.num_pages == pages
    assert tree.check().clean


def test_rewrite_checks_its_input_before_changing_a_page(env):
    tree = env.open_tree("t")
    items = sorted(make_items(300))
    tree.bulk_load(items)
    writes = env.stats.physical_writes
    with pytest.raises(StorageError, match="sorted"):
        tree.rewrite(items + [(b"\x00", b"late and out of order")])
    with pytest.raises(StorageError, match="exceeds"):
        tree.rewrite(items + [(b"\xff" * 100, b"key too long")])
    for value in ("a str", 7):
        with pytest.raises(StorageError, match="values must be bytes"):
            tree.rewrite(items + [(b"\xff", value)])
    assert env.stats.physical_writes == writes
    assert list(tree.items()) == items
    assert tree.check().clean


def test_rewrite_to_empty_and_back(env):
    """Dropping the last entry leaves an empty one-leaf tree that can be
    rewritten again (the catalog of a database whose streams are all
    dropped)."""
    tree = env.open_tree("t")
    items = sorted(make_items(300))
    tree.bulk_load(items)
    assert tree.rewrite([]) == 0
    assert (len(tree), tree.num_leaves, tree.height) == (0, 1, 1)
    assert list(tree.items()) == []
    assert tree.check().clean
    tree.rewrite(items)
    assert list(tree.items()) == items
    assert tree.check().clean


def test_scan_survives_eviction_of_its_leaf(tmp_path):
    """Scans pin nothing: a scan over a tree many times larger than the
    pool, interleaved with point reads that evict the scan's leaf, still
    returns every entry in order."""
    with StorageEnvironment(str(tmp_path / "db"), page_size=512,
                            pool_pages=2) as env:
        tree = env.open_tree("t")
        items = sorted(make_items(2000))
        tree.bulk_load(items)
        seen = []
        for entry in tree.items():
            seen.append(entry)
            assert tree.get(items[0][0]) == items[0][1]  # evicts the leaf
        assert seen == items
        assert env.stats.evictions > tree.num_leaves


def test_duplicate_keys_are_refused(env):
    """Keys are unique: a load with an equal adjacent key raises and
    writes no file."""
    tree = env.open_tree("t")
    key = encode_key((7,))
    with pytest.raises(StorageError, match="not strictly sorted"):
        tree.bulk_load([(encode_key((6,)), b"before"), (key, b"dup0"),
                        (key, b"dup1"), (encode_key((8,)), b"after")])
    assert len(tree) == 0
    assert not env.exists("t")


def test_range_items_within_bounds(env):
    tree = env.open_tree("t")
    items = sorted(make_items(1000))
    tree.bulk_load(items)
    lo, hi = items[150][0], items[850][0]
    fwd = list(tree.range_items(lo, hi))
    assert fwd == items[150:850]
    assert list(tree.range_items(None, None)) == items
    # bounds that fall between keys still work
    assert list(tree.range_items(lo + b"\x00", hi)) == items[151:850]


def test_range_scan_starts_at_its_bound_and_reads_leaf_by_leaf(env):
    tree = env.open_tree("t")
    items = sorted(make_items(500))
    tree.bulk_load(items)
    assert list(islice(tree.range_items(items[250][0]), 2)) == \
        items[250:252]
    assert next(tree.range_items()) == items[0]
    assert list(tree.range_items(items[-1][0])) == items[-1:]
    # a bound past the end yields nothing
    assert list(tree.range_items(items[-1][0] + b"\xff")) == []
    # leaves: the leaf owning the key, then its siblings, one read each
    first = next(tree.leaves(items[250][0]))
    assert first.keys[0] <= items[250][0] <= first.keys[-1]
    snap = env.stats.snapshot()
    walked = list(tree.leaves())
    assert env.stats.delta(snap).logical_reads == len(walked) == \
        tree.num_leaves
    assert [k for leaf in walked for k in leaf.keys] == \
        [k for k, _ in items]
    # slices: each leaf's share of a range, in order
    lo, hi = items[100][0], items[400][0]
    assert [k for leaf, i, j in tree.range_slices(lo, hi)
            for k in leaf.keys[i:j]] == [k for k, _ in items[100:400]]


def test_scans_of_an_empty_tree(env):
    tree = env.open_tree("t")
    assert [leaf.keys for leaf in tree.leaves()] == [[]]
    assert list(tree.range_slices()) == []
    tree.bulk_load([])
    assert [leaf.keys for leaf in tree.leaves(encode_key((1,)))] == [[]]
    assert list(tree.range_items(encode_key((1,)))) == []


def test_bulk_load_validates_input(env):
    tree = env.open_tree("t")
    with pytest.raises(StorageError, match="sorted"):
        tree.bulk_load([(b"b", b"1"), (b"a", b"2")])
    fresh = env.open_tree("t2")
    fresh.bulk_load(sorted(make_items(10)))
    with pytest.raises(StorageError, match="empty"):
        fresh.bulk_load(sorted(make_items(10)))


def test_bulk_load_empty_and_duplicate_keys(env):
    tree = env.open_tree("t")
    assert tree.bulk_load([]) == 0
    assert list(tree.items()) == []
    tree2 = env.open_tree("t2")
    items = [(encode_key((1,)), b"a"), (encode_key((1,)), b"b"),
             (encode_key((2,)), b"c")]
    with pytest.raises(StorageError, match="not strictly sorted"):
        tree2.bulk_load(items)
    with pytest.raises(StorageError, match="not strictly sorted"):
        tree2.bulk_load(FixedRows(np.array([[1, 0], [1, 1]], np.uint8), 1))
    assert not env.exists("t2")


def test_overflow_values_roundtrip_and_free(env):
    tree = env.open_tree("t")
    big = bytes(range(256)) * 40  # 10 KiB >> quarter of a 512-byte page
    small_key, big_key = encode_key((1,)), encode_key((2,))
    tree.bulk_load([(small_key, b"small"), (big_key, big)])
    assert tree.get(big_key) == big
    assert tree.get(small_key) == b"small"
    pages_with_big = tree.pager.num_pages
    # A rewrite writes a new file: the old chain goes with the old one.
    tree.rewrite([(small_key, b"small"), (big_key, big[::-1])])
    assert tree.get(big_key) == big[::-1]
    assert tree.pager.num_pages == pages_with_big
    tree.rewrite([(small_key, b"small"), (encode_key((3,)), big)])
    assert tree.pager.num_pages == pages_with_big
    assert tree.get(encode_key((3,))) == big
    assert tree.get(big_key) is None
    assert tree.check().clean


def test_persistence_across_reopen(tmp_path):
    items = sorted(make_items(800))
    with StorageEnvironment(str(tmp_path / "db"), page_size=512) as env:
        tree = env.open_tree("t")
        tree.bulk_load(items)
        tree.rewrite(sorted(items + [(encode_key((99, 99)), b"late insert")]))
    with StorageEnvironment(str(tmp_path / "db"), page_size=512) as env:
        tree = env.open_tree("t", create=False)
        assert len(tree) == len(items) + 1
        assert tree.get(encode_key((99, 99))) == b"late insert"
        assert [k for k, _ in tree.items()] == sorted(
            [k for k, _ in items] + [encode_key((99, 99))]
        )
    with StorageEnvironment(str(tmp_path / "db"), page_size=512) as env:
        with pytest.raises(StorageError):
            env.open_tree("absent", create=False)


def test_point_lookup_costs_height_logical_reads(env):
    tree = env.open_tree("t")
    items = sorted(make_items(5000))
    tree.bulk_load(items)
    assert tree.height >= 3
    env.drop_caches()
    for key, value in [items[17], items[2500], items[-1]]:
        snap = env.stats.snapshot()
        assert tree.get(key) == value
        delta = env.stats.delta(snap)
        assert delta.logical_reads == tree.height
        assert delta.physical_reads <= tree.height


def test_scan_io_cold_vs_warm(tmp_path):
    with StorageEnvironment(str(tmp_path / "db"), page_size=512,
                            pool_pages=4096) as env:
        tree = env.open_tree("t")
        items = sorted(make_items(5000))
        tree.bulk_load(items)
        env.drop_caches()
        snap = env.stats.snapshot()
        assert sum(1 for _ in tree.items()) == len(items)
        cold = env.stats.delta(snap)
        # A full scan walks the leaf chain: exactly one physical read per leaf.
        assert cold.physical_reads == tree.num_leaves
        assert cold.logical_reads == tree.num_leaves
        snap = env.stats.snapshot()
        assert sum(1 for _ in tree.items()) == len(items)
        warm = env.stats.delta(snap)
        assert warm.physical_reads == 0  # 100% buffer-pool hits
        assert warm.logical_reads == tree.num_leaves


def test_environment_tree_management(env):
    env.open_tree("alpha").bulk_load([(b"k", b"v")])
    env.open_tree("beta").bulk_load([])
    # Opened but never loaded: an empty tree with no file yet.
    gamma = env.open_tree("gamma")
    assert len(gamma) == 0 and gamma.get(b"k") is None
    assert list(gamma.items()) == []
    assert env.exists("alpha") and not env.exists("gamma")
    assert env.list_trees() == ["alpha", "beta"]
    assert env.file_size("alpha") > 0
    env.drop_tree("beta")
    assert env.list_trees() == ["alpha"]
    with pytest.raises(StorageError):
        env.drop_tree("beta")
    with pytest.raises(StorageError):
        env.open_tree("../escape")


def test_shared_pool_io_accounting_across_trees(env):
    a = env.open_tree("a")
    b = env.open_tree("b")
    a.bulk_load(sorted(make_items(300)))
    b.bulk_load(sorted(make_items(300)))
    env.drop_caches()
    snap = env.stats.snapshot()
    a.get(encode_key((0, 0)))
    b.get(encode_key((0, 0)))
    delta = env.stats.delta(snap)
    assert delta.logical_reads == a.height + b.height
