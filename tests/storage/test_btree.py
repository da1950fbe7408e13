"""B+ tree behavior: CRUD, cursors, bulk loading, overflow, I/O costs."""

import random

import pytest

from repro.errors import StorageError
from repro.storage import StorageEnvironment, encode_key


@pytest.fixture
def env(tmp_path):
    with StorageEnvironment(str(tmp_path / "db"), page_size=512,
                            pool_pages=64) as env:
        yield env


def make_items(n, value=lambda i: f"value-{i}".encode()):
    return [(encode_key((i % 13, i)), value(i)) for i in range(n)]


def test_insert_lookup_delete_matches_dict(env):
    tree = env.open_tree("t")
    rng = random.Random(1)
    reference = {}
    for _ in range(3000):
        key = encode_key((rng.randint(0, 400),))
        value = bytes([rng.randint(0, 255)]) * rng.randint(0, 40)
        reference[key] = value
        tree.put(key, value)
    for key, value in reference.items():
        assert tree.get(key) == value
    assert tree.get(encode_key((999,))) is None
    assert len(tree) == len(reference)

    for key in list(reference)[::3]:
        assert tree.delete(key)
        del reference[key]
    assert not tree.delete(encode_key((999,)))
    for key, value in reference.items():
        assert tree.get(key) == value
    assert len(tree) == len(reference)
    assert [k for k, _ in tree.items()] == sorted(reference)


def test_replace_updates_in_place(env):
    tree = env.open_tree("t")
    key = encode_key((1,))
    tree.put(key, b"old")
    tree.put(key, b"new")
    assert tree.get(key) == b"new"
    assert len(tree) == 1


def test_duplicates_enumerate_in_order(env):
    tree = env.open_tree("t")
    key = encode_key((7,))
    for i in range(5):
        tree.put(key, f"dup{i}".encode(), replace=False)
    tree.put(encode_key((6,)), b"before")
    tree.put(encode_key((8,)), b"after")
    assert len(tree) == 7
    dups = [v for k, v in tree.items() if k == key]
    assert sorted(dups) == [f"dup{i}".encode() for i in range(5)]
    assert tree.get(key) in dups  # first match
    # delete removes one duplicate at a time
    assert tree.delete(key)
    assert len([v for k, v in tree.items() if k == key]) == 4


def test_range_items_within_bounds(env):
    tree = env.open_tree("t")
    items = sorted(make_items(1000))
    for key, value in items:
        tree.put(key, value)
    lo, hi = items[150][0], items[850][0]
    fwd = list(tree.range_items(lo, hi))
    assert fwd == items[150:850]
    assert list(tree.range_items(None, None)) == items
    # bounds that fall between keys still work
    assert list(tree.range_items(lo + b"\x00", hi)) == items[151:850]


def test_cursor_seek_and_step(env):
    tree = env.open_tree("t")
    items = sorted(make_items(500))
    tree.bulk_load(items)
    cur = tree.cursor()
    assert cur.seek(items[250][0])
    assert cur.key == items[250][0]
    assert cur.next() and cur.key == items[251][0]
    assert cur.first() and cur.key == items[0][0]
    assert cur.seek(items[-1][0]) and cur.key == items[-1][0]
    assert not cur.next()
    # seek past the end invalidates
    assert not cur.seek(items[-1][0] + b"\xff")
    cur.close()


def test_bulk_load_equals_incremental_build(env):
    items = sorted(make_items(2000))
    bulk = env.open_tree("bulk")
    bulk.bulk_load(items)
    incremental = env.open_tree("incr")
    shuffled = items[:]
    random.Random(5).shuffle(shuffled)
    for key, value in shuffled:
        incremental.put(key, value)

    assert list(bulk.items()) == list(incremental.items()) == items
    for key, value in items[::97]:
        assert bulk.get(key) == value
    # Packed leaves: bulk loading is denser and never taller.
    assert bulk.num_leaves < incremental.num_leaves
    assert bulk.height <= incremental.height


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
    assert tree2.bulk_load(items) == 3
    assert list(tree2.items()) == items


def test_bulk_load_fill_factor_controls_leaf_count(env):
    items = sorted(make_items(2000))
    packed = env.open_tree("packed")
    packed.bulk_load(items, fill=1.0)
    loose = env.open_tree("loose")
    loose.bulk_load(items, fill=0.5)
    assert packed.num_leaves < loose.num_leaves
    assert list(loose.items()) == items


def test_overflow_values_roundtrip_and_free(env):
    tree = env.open_tree("t")
    big = bytes(range(256)) * 40  # 10 KiB >> quarter of a 512-byte page
    small_key, big_key = encode_key((1,)), encode_key((2,))
    tree.put(big_key, big)
    tree.put(small_key, b"small")
    assert tree.get(big_key) == big
    assert tree.get(small_key) == b"small"
    tree.flush()
    pages_with_big = tree.pager.num_pages
    # Replacing the spilled value frees its chain: the file stops growing.
    tree.put(big_key, big[::-1])
    assert tree.get(big_key) == big[::-1]
    assert tree.pager.num_pages <= pages_with_big + 1
    tree.delete(big_key)
    tree.put(encode_key((3,)), big)
    assert tree.pager.num_pages <= pages_with_big + 1
    assert tree.get(encode_key((3,))) == big


def test_persistence_across_reopen(tmp_path):
    items = sorted(make_items(800))
    with StorageEnvironment(str(tmp_path / "db"), page_size=512) as env:
        tree = env.open_tree("t")
        tree.bulk_load(items)
        tree.put(encode_key((99, 99)), b"late insert")
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
    env.open_tree("alpha").put(b"k", b"v")
    env.open_tree("beta")
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
