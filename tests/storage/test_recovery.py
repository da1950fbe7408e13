"""Crash recovery: committed state survives, uncommitted state rolls
back, and the environment shuts down cleanly either way."""

import pytest

from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.storage import StorageEnvironment
from repro.storage.faults import FaultInjector, FaultRule, SimulatedCrash


def tree_state(tree):
    return dict(tree.items())


def crash_mid_rewrite(inj, tree, items):
    """Run a rewrite that dies at its WAL commit, so its pages stay
    uncommitted."""
    commit = inj.hits.get("wal.commit", 0) + 1
    inj.rules.append(FaultRule("wal.commit", commit, "crash"))
    with pytest.raises(SimulatedCrash):
        tree.rewrite(items)


def build(tmp_path, faults=None, **kw):
    kw.setdefault("page_size", 256)
    kw.setdefault("pool_pages", 16)
    kw.setdefault("metrics", False)
    return StorageEnvironment(str(tmp_path / "db"), faults=faults, **kw)


def test_crash_rolls_back_to_last_commit(tmp_path):
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    tree.bulk_load((f"k{i:03d}".encode(), b"committed")
                   for i in range(100))  # bulk_load commits
    crash_mid_rewrite(inj, tree, [(f"k{i:03d}".encode(), b"uncommitted")
                                  for i in range(150)])
    inj.crash()  # power cut before the rewrite's commit
    env.close()
    assert env.close_errors  # the crashed handles could not commit

    env2 = build(tmp_path)
    recovered = tree_state(env2.open_tree("t", create=False))
    assert recovered == {f"k{i:03d}".encode(): b"committed"
                         for i in range(100)}
    assert env2.fsck().clean
    env2.close()


def test_a_rewrite_that_fails_part_way_is_never_committed(tmp_path):
    """An I/O error in the middle of a rewrite leaves the old tree's
    pages freed and the new one half-written. Nothing may commit that:
    not a later change, not the ordinary close after the error."""
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    old = [(f"k{i:03d}".encode(), b"old" * 10) for i in range(100)]
    tree.bulk_load(old)
    appends = inj.hits["wal.append"]
    inj.rules.append(FaultRule("wal.append", appends + 30, "error"))
    with pytest.raises(OSError):
        tree.rewrite([(k, b"new" * 10) for k, _ in old])
    with pytest.raises(StorageError, match="reopen"):
        tree.rewrite(old)
    env.close()
    assert env.close_errors and env.close_errors[0].startswith("t:")

    env2 = build(tmp_path)
    assert tree_state(env2.open_tree("t", create=False)) == dict(old)
    assert env2.fsck().clean
    env2.open_tree("t").rewrite([(b"after", b"reopen")])
    env2.close()
    assert not env2.close_errors


def test_committed_state_survives_crash(tmp_path):
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    items = [(f"k{i:03d}".encode(), b"v") for i in range(50)]
    tree.bulk_load(items)
    tree.rewrite(sorted(items + [(b"extra", b"committed")]))
    inj.crash()
    env.close()

    env2 = build(tmp_path)
    recovered = tree_state(env2.open_tree("t", create=False))
    assert recovered[b"extra"] == b"committed"
    assert len(recovered) == 51
    assert env2.fsck().clean
    env2.close()


def test_torn_checkpoint_recovers_from_wal(tmp_path):
    # The fault tears an in-place page write of the bulk load's
    # checkpoint (creation uses checkpoint.write hits 1-4): the main
    # file is damaged mid-write, but the WAL committed everything just
    # before, so recovery rebuilds it.
    inj = FaultInjector([FaultRule("checkpoint.write", 6, "torn")], seed=3)
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    with pytest.raises(SimulatedCrash):
        tree.bulk_load((f"k{i:03d}".encode(), b"v" * 40)
                       for i in range(120))
    inj.crash()
    env.close()

    env2 = build(tmp_path)
    recovered = tree_state(env2.open_tree("t", create=False))
    assert recovered == {f"k{i:03d}".encode(): b"v" * 40
                         for i in range(120)}
    assert env2.fsck().clean
    env2.close()


def test_committed_but_uncheckpointed_state_recovers(tmp_path):
    env = build(tmp_path)
    env.open_tree("t").bulk_load([(b"a", b"1")])
    env.close()
    # Crash after the WAL commit fsync but before the checkpoint's
    # first in-place write: the commit is durable only in the log.
    inj = FaultInjector([FaultRule("checkpoint.write", 1, "crash")])
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t", create=False)
    with pytest.raises(SimulatedCrash):
        tree.rewrite([(b"a", b"1"), (b"b", b"2")])
    inj.crash()
    env.close()

    env2 = build(tmp_path)
    recovered = tree_state(env2.open_tree("t", create=False))
    assert recovered == {b"a": b"1", b"b": b"2"}  # the commit was durable
    env2.close()


def test_main_file_lost_before_first_checkpoint(tmp_path):
    # Creation order is WAL commit, then checkpoint: crash the very
    # first checkpoint fsync and the durable main file is still empty —
    # the committed meta page exists only in the log. Reopening must
    # recreate the file from the WAL, not fail or silently start over.
    import os

    from repro.storage import Pager

    inj = FaultInjector([FaultRule("checkpoint.fsync", 1, "crash")])
    path = str(tmp_path / "f")
    with pytest.raises(SimulatedCrash):
        Pager(path, page_size=128, faults=inj)
    inj.crash()
    assert os.path.getsize(path) == 0
    pager = Pager(path, page_size=128, create=False)
    assert pager.num_pages == 1  # the committed (empty) geometry
    pager.close()


def test_crash_during_recovery_is_recoverable(tmp_path):
    # First crash: committed WAL, unfinished checkpoint (hit 5 is the
    # first page write of the bulk load's checkpoint; 1-4 are creation).
    inj = FaultInjector([FaultRule("checkpoint.write", 5, "crash")])
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    with pytest.raises(SimulatedCrash):
        tree.bulk_load((f"k{i:03d}".encode(), b"v") for i in range(80))
    inj.crash()
    env.close()

    # Second crash: during the recovery replay itself.
    inj2 = FaultInjector([FaultRule("recover.apply", 2, "crash")])
    with pytest.raises(SimulatedCrash):
        build(tmp_path, faults=inj2).open_tree("t", create=False)
    inj2.crash()

    # Third attempt: clean recovery must still converge.
    env3 = build(tmp_path)
    recovered = tree_state(env3.open_tree("t", create=False))
    assert recovered == {f"k{i:03d}".encode(): b"v" for i in range(80)}
    assert env3.fsck().clean
    env3.close()


def test_recovery_emits_metrics_and_span(tmp_path):
    inj = FaultInjector([FaultRule("checkpoint.write", 5, "crash")])
    env = build(tmp_path, faults=inj)
    tree = env.open_tree("t")
    with pytest.raises(SimulatedCrash):
        tree.bulk_load((f"k{i:03d}".encode(), b"v") for i in range(60))
    inj.crash()
    env.close()

    metrics = MetricsRegistry()
    env2 = StorageEnvironment(str(tmp_path / "db"), page_size=256,
                              metrics=metrics)
    env2.open_tree("t", create=False)
    assert metrics.counter("wal.recoveries").value >= 1
    assert metrics.counter("wal.pages_applied").value > 0
    snapshot = metrics.snapshot()
    assert "span.wal.recover.ms" in snapshot["histograms"]
    env2.close()


# ----------------------------------------------------------------------
# Environment close (satellite regression tests)
# ----------------------------------------------------------------------

def test_close_is_idempotent(tmp_path):
    env = build(tmp_path)
    env.open_tree("t").bulk_load([(b"a", b"1")])
    env.close()
    env.close()
    env.close()
    assert env.close_errors == []


def test_close_after_crash_never_raises(tmp_path):
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    crash_mid_rewrite(inj, env.open_tree("t"), [(b"a", b"1")])
    crash_mid_rewrite(inj, env.open_tree("u"), [(b"b", b"2")])
    inj.crash()
    env.close()  # must swallow the dead handles, not raise
    assert len(env.close_errors) == 2  # one per tree, both reported
    env.close()  # and stay idempotent
    assert len(env.close_errors) == 2


def test_close_error_names_the_tree(tmp_path):
    inj = FaultInjector()
    env = build(tmp_path, faults=inj)
    crash_mid_rewrite(inj, env.open_tree("only"), [(b"a", b"1")])
    inj.crash()
    env.close()
    assert env.close_errors and env.close_errors[0].startswith("only:")
