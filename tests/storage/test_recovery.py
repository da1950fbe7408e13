"""Crash safety of a tree commit: a tree file is renamed into place
only once it is written and fsynced, so a crash or an error leaves the
old contents or the new ones, and the environment shuts down cleanly
either way."""

import pytest

from repro.storage import StorageEnvironment
from repro.storage.faults import FaultInjector, FaultRule, SimulatedCrash


def tree_state(tree):
    return dict(tree.items())


def fail_next(inj, site, action):
    """Arm ``action`` at the next pass over ``site``."""
    inj.rules.append(FaultRule(site, inj.hits.get(site, 0) + 1, action))


def build(tmp_path, faults=None, **kw):
    kw.setdefault("page_size", 256)
    kw.setdefault("pool_pages", 16)
    return StorageEnvironment(str(tmp_path / "db"), faults=faults, **kw)


def reopened_state(tmp_path):
    env = build(tmp_path)
    try:
        state = tree_state(env.open_tree("t", create=False))
        assert env.fsck().clean
        return state
    finally:
        env.close()


OLD = [(f"k{i:03d}".encode(), b"old" * 10) for i in range(100)]
NEW = [(k, b"new" * 10) for k, _ in OLD]


@pytest.mark.parametrize("site", ["pager.write", "pager.fsync",
                                  "pager.rename", "dir.fsync"])
def test_a_crash_in_a_rewrite_leaves_the_old_contents(tmp_path, site):
    """Up to the rename nothing is at the tree's name; after it, only
    the directory fsync makes the rename durable."""
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    tree.bulk_load(OLD)
    fail_next(inj, site, "crash")
    with pytest.raises(SimulatedCrash):
        tree.rewrite(NEW)
    inj.crash()  # power cut before the rewrite's commit became durable
    env.close()
    assert reopened_state(tmp_path) == dict(OLD)
    assert sorted(p.name for p in (tmp_path / "db").iterdir()) == [
        "t.btree"]


def test_a_rewrite_that_fails_part_way_is_never_committed(tmp_path):
    """An I/O error in the middle of a rewrite abandons the new file:
    the old contents stay readable in the same session, and a later
    rewrite succeeds."""
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    tree.bulk_load(OLD)
    inj.rules.append(FaultRule("pager.write",
                               inj.hits["pager.write"] + 10, "error"))
    with pytest.raises(OSError):
        tree.rewrite(NEW)
    assert tree_state(tree) == dict(OLD)
    assert tree.check().clean
    tree.rewrite([(b"after", b"the error")])
    assert tree_state(tree) == {b"after": b"the error"}
    env.close()
    assert reopened_state(tmp_path) == {b"after": b"the error"}


def test_an_error_after_the_rename_leaves_the_tree_on_the_new_file(
        tmp_path):
    """The rename is the commit point: when the directory fsync after
    it fails, the tree reads what its file now holds, the new
    contents; the rename is durable only once a later directory fsync
    covers it."""
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    tree.bulk_load(OLD)
    fail_next(inj, "dir.fsync", "error")
    with pytest.raises(OSError):
        tree.rewrite(NEW)
    assert tree_state(tree) == dict(NEW)
    env.open_tree("u").bulk_load([(b"u", b"1")])  # fsyncs the directory
    inj.crash()
    env.close()
    assert reopened_state(tmp_path) == dict(NEW)


def test_committed_state_survives_crash(tmp_path):
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    items = [(f"k{i:03d}".encode(), b"v") for i in range(50)]
    tree.bulk_load(items)
    tree.rewrite(sorted(items + [(b"extra", b"committed")]))
    inj.crash()
    env.close()

    recovered = reopened_state(tmp_path)
    assert recovered[b"extra"] == b"committed"
    assert len(recovered) == 51


def test_a_crash_before_the_first_load_leaves_no_tree(tmp_path):
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    assert not env.exists("t")  # opening writes nothing
    fail_next(inj, "dir.fsync", "crash")
    with pytest.raises(SimulatedCrash):
        tree.bulk_load(OLD)
    inj.crash()
    env.close()
    env = build(tmp_path)
    assert env.list_trees() == []
    assert env.fsck().clean
    env.close()


# ----------------------------------------------------------------------
# Environment close
# ----------------------------------------------------------------------

def test_close_is_idempotent(tmp_path):
    env = build(tmp_path)
    env.open_tree("t").bulk_load([(b"a", b"1")])
    env.close()
    env.close()
    env.close()
    assert env.closed


def test_close_after_crash_never_raises(tmp_path):
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    for name in ("t", "u"):
        env.open_tree(name).bulk_load([(b"a", b"1")])
        fail_next(inj, "pager.rename", "crash")
        with pytest.raises(SimulatedCrash):
            env.open_tree(name).rewrite([(b"b", b"2")])
    inj.crash()
    env.close()  # the dead handles need nothing written: no error
    env.close()  # and it stays idempotent
