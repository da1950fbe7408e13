"""The deep checker must bless healthy trees and name specific damage."""

import pytest

from repro.storage import StorageEnvironment
from repro.storage.btree import _LEAF_HDR, _PAGE_LEAF
from repro.storage.pager import PAGE_HEADER_SIZE

PAGE_SIZE = 256


@pytest.fixture
def env(tmp_path):
    environment = StorageEnvironment(str(tmp_path / "db"),
                                     page_size=PAGE_SIZE)
    yield environment
    environment.close()


def build_tree(env, n=300, name="t", big=True):
    tree = env.open_tree(name)
    items = [(f"k{i:05d}".encode(), b"v" * (i % 50)) for i in range(n)]
    if big:
        items.append((b"zz-big", b"B" * (PAGE_SIZE * 3)))  # overflow chain
    tree.bulk_load(items)
    return tree


def test_clean_tree_checks_clean(env):
    tree = build_tree(env)
    report = tree.check()
    assert report.clean
    assert report.entries == 301
    assert report.leaves == tree.num_leaves
    assert report.overflow_pages >= 3
    assert "clean" in report.render()


def test_clean_env_fscks_clean_with_zero_writes(env):
    build_tree(env, name="a")
    build_tree(env, name="b", big=False)
    before = env.stats.physical_writes
    report = env.fsck()
    assert report.clean
    assert env.stats.physical_writes == before  # fsck only reads
    assert report.pages_checked > 0
    assert set(report.trees) == {"a", "b"}


def test_fsck_report_counts_every_page_of_every_file(env):
    tree = build_tree(env)
    report = env.fsck()
    assert report.clean and report.all_errors() == []
    # The checksum sweep reads each client page of the file once.
    assert report.pages_checked == tree.pager.num_pages - 1 > 0


def corrupt_leaf(env, tree, patch):
    """Reopen the tree's file raw, apply ``patch(leaf_page_ids, fh)``."""
    env.close()
    path = tree.pager.path
    frame_size = PAGE_SIZE + PAGE_HEADER_SIZE
    leaf_pages = []
    with open(path, "rb") as fh:
        raw = fh.read()
    for page_id in range(2, len(raw) // frame_size):
        if raw[page_id * frame_size + PAGE_HEADER_SIZE] == _PAGE_LEAF:
            leaf_pages.append(page_id)
    with open(path, "r+b") as fh:
        patch(leaf_pages, fh, frame_size)


def reopened_report(env_path):
    env = StorageEnvironment(env_path, page_size=PAGE_SIZE)
    try:
        return env.fsck()
    finally:
        env.close()


def test_fsck_reports_checksum_damage(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), page_size=PAGE_SIZE)
    tree = build_tree(env, big=False)

    def smash(leaves, fh, frame_size):
        fh.seek(leaves[2] * frame_size + PAGE_HEADER_SIZE + 8)
        fh.write(b"\xff" * 4)

    corrupt_leaf(env, tree, smash)
    report = reopened_report(str(tmp_path / "db"))
    assert not report.clean
    assert any("checksum" in e for e in report.all_errors())


def test_fsck_reports_broken_sibling_link(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), page_size=PAGE_SIZE)
    tree = build_tree(env, big=False)

    def unlink(leaves, fh, frame_size):
        # Overwrite one leaf's frame with a re-checksummed copy whose
        # `next` pointer is zeroed: structurally valid, logically wrong.
        import struct
        import zlib
        page_id = leaves[1]
        fh.seek(page_id * frame_size)
        frame = bytearray(fh.read(frame_size))
        payload = frame[PAGE_HEADER_SIZE:]
        kind, prev, nxt, count = _LEAF_HDR.unpack_from(payload)
        _LEAF_HDR.pack_into(payload, 0, kind, prev, 0, count)
        body = frame[4:PAGE_HEADER_SIZE] + payload
        frame[0:4] = struct.pack(">I", zlib.crc32(bytes(body)))
        frame[PAGE_HEADER_SIZE:] = payload
        fh.seek(page_id * frame_size)
        fh.write(bytes(frame))

    corrupt_leaf(env, tree, unlink)
    report = reopened_report(str(tmp_path / "db"))
    assert not report.clean
    errors = "\n".join(report.all_errors())
    assert "chain" in errors or "prev link" in errors


def test_fsck_reports_unopenable_tree(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), page_size=PAGE_SIZE)
    build_tree(env, big=False)
    env.close()
    path = str(tmp_path / "db" / "t.btree")
    with open(path, "r+b") as fh:
        fh.write(b"XXXX")  # destroy the pager magic
    report = reopened_report(str(tmp_path / "db"))
    assert not report.clean
    assert any("cannot open" in e for e in report.errors)


def test_fsck_ignores_an_abandoned_load(tmp_path):
    """A load that fails before its rename leaves only its sibling file,
    which is not a tree: the tree keeps its contents and fsck is
    clean."""
    from repro.storage.faults import FaultInjector, FaultRule

    db = tmp_path / "db"
    inj = FaultInjector()
    env = StorageEnvironment(str(db), page_size=PAGE_SIZE, faults=inj)
    tree = build_tree(env, big=False)
    items = list(tree.items())
    inj.rules.append(FaultRule("pager.rename", inj.hits["pager.rename"] + 1,
                               "error"))
    with pytest.raises(OSError):
        tree.rewrite([(b"new", b"contents")])
    env.close()
    assert (db / "t.btree.new").exists()
    report = reopened_report(str(db))
    assert report.clean and set(report.trees) == {"t"}
    env = StorageEnvironment(str(db), page_size=PAGE_SIZE)
    assert list(env.open_tree("t", create=False).items()) == items
    env.close()


def test_check_detects_entry_count_drift(tmp_path):
    import struct
    import zlib

    from repro.storage.btree import _HDR

    env = StorageEnvironment(str(tmp_path / "db"), page_size=PAGE_SIZE)
    tree = build_tree(env, big=False)

    def drift(_leaves, fh, frame_size):
        # A re-checksummed header whose entry count is 7 too high.
        fh.seek(frame_size)
        frame = bytearray(fh.read(frame_size))
        fields = list(_HDR.unpack_from(frame, PAGE_HEADER_SIZE))
        fields[-1] += 7
        _HDR.pack_into(frame, PAGE_HEADER_SIZE, *fields)
        frame[0:4] = struct.pack(">I", zlib.crc32(bytes(frame[4:])))
        fh.seek(frame_size)
        fh.write(bytes(frame))

    corrupt_leaf(env, tree, drift)
    report = reopened_report(str(tmp_path / "db"))
    assert not report.clean
    assert any("entries" in e for e in report.all_errors())


def test_check_refuses_equal_adjacent_keys(env):
    """Keys are unique, and the checker holds a tree to it: 200 entries
    over 100 keys, written with the reference writer's order check
    turned off, fail within a page, along the leaf chain and against a
    separator, while the same keys once each check clean."""
    from reference_btree_writer import use_reference_writer

    keys = [f"k{i:04d}".encode() for i in range(100)]
    doubled = use_reference_writer(env.open_tree("doubled"), strict=False)
    doubled.bulk_load([(key, b"v" * 20) for key in keys for _ in range(2)])
    assert doubled.num_leaves > 1
    errors = doubled.check().errors
    assert any("not strictly increasing" in e for e in errors)
    assert any("does not sort after its left sibling" in e for e in errors)
    assert any("above its separator bound" in e for e in errors)
    assert not env.fsck().clean

    single = use_reference_writer(env.open_tree("single"))
    single.bulk_load([(key, b"v" * 20) for key in keys])
    assert single.check().clean
