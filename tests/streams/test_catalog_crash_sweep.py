"""Crash safety of a catalog commit.

The catalog is the only tree that is ever rewritten: every change to it
is one :meth:`~repro.storage.btree.BTree.rewrite`, one new file renamed
over the old one. Every
single-fault schedule over that commit — the ``register_stream`` of
``Caldera.archive`` and the catalog half of ``drop_stream`` — must leave
the catalog exactly as it was before the change or exactly as it is
after it, with a clean fsck.
"""

import shutil

import pytest

from repro.core import Caldera
from repro.storage import StorageEnvironment, decode_key
from repro.storage.faults import (
    FaultInjector,
    SimulatedCrash,
    enumerate_schedules,
)
from repro.streams import synthetic_stream
from repro.streams.catalog import CATALOG_TREE, Catalog

#: Small pages, so every stream's catalog entry spills into an
#: overflow chain and a commit writes several pages.
PAGE_SIZE = 512
SWEEP_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """A database holding streams ``a``, ``c`` and ``d`` and a dimension
    table, plus the catalog entry ``Caldera.archive`` registers for a
    stream ``b``."""
    root = tmp_path_factory.mktemp("catalog_sweep")
    with Caldera(str(root / "base"), page_size=PAGE_SIZE) as db:
        db.register_dimension_table("Kind", {"Door": "portal",
                                             "Room": "space"})
        for seed, (name, layout) in enumerate(
                (("a", "packed"), ("c", "separated"), ("d", "cell"))):
            db.archive(synthetic_stream(name, num_snippets=2, seed=seed),
                       layout=layout, mc_alpha=2, join_tables=("Kind",))
    with Caldera(str(root / "other"), page_size=PAGE_SIZE) as db:
        meta_b = db.archive(synthetic_stream("b", num_snippets=2, seed=5),
                            layout="separated", mc_alpha=2)
    return root, meta_b


def catalog_copy(root, name):
    """A fresh directory holding only the base database's catalog."""
    dirname = root / name
    dirname.mkdir()
    for path in (root / "base").glob(CATALOG_TREE + ".btree*"):
        shutil.copy(path, dirname / path.name)
    return str(dirname)


def run_op(dirname, injector, op):
    """Open the catalog under ``injector`` and apply ``op``; returns the
    injector's hits before ``op`` and whether everything completed. An
    I/O error is followed by the ordinary close that ``with Caldera``
    runs on the way out; a simulated crash is not (the process died)."""
    env = StorageEnvironment(dirname, page_size=PAGE_SIZE, faults=injector)
    try:
        catalog = Catalog(env)
        before = dict(injector.hits)
        op(catalog)
        env.close()
        return before, True
    except OSError:
        env.close()
        return None, False
    except SimulatedCrash:
        return None, False


def recovered_entries(dirname):
    """Reopen cleanly; the catalog tree's entries, fsck-checked."""
    env = StorageEnvironment(dirname, page_size=PAGE_SIZE)
    try:
        entries = dict(env.open_tree(CATALOG_TREE, create=False).items())
        report = env.fsck()
        assert report.clean, report.all_errors()[:4]
        assert sorted(Catalog(env).list_streams()) == sorted(
            name for tag, name in map(decode_key, entries) if tag == "stream")
        return entries
    finally:
        env.close()


@pytest.mark.parametrize("change", ["archive", "drop"])
def test_every_single_fault_in_a_catalog_commit(setup, change):
    root, meta_b = setup
    if change == "archive":
        def op(catalog):
            catalog.register_stream(meta_b)
    else:
        def op(catalog):
            catalog.drop_stream("a")

    before_dir = catalog_copy(root, f"{change}_probe")
    old = recovered_entries(before_dir)
    probe = FaultInjector()  # unarmed: counts failpoint hits
    opened_hits, finished = run_op(before_dir, probe, op)
    assert finished
    new = recovered_entries(before_dir)
    assert new != old

    # Only the hits the commit itself makes: opening the catalog is
    # not part of the change.
    hits = probe.hits
    schedules = [rule for rule in enumerate_schedules(
                     hits, max_hits_per_site=max(hits.values()))
                 if rule.at_hit > opened_hits.get(rule.site, 0)]
    assert {rule.site for rule in schedules} >= {
        "pager.write", "pager.fsync", "pager.rename", "dir.fsync"}

    failures = []
    for seed in SWEEP_SEEDS:
        for n, rule in enumerate(schedules):
            dirname = catalog_copy(root, f"{change}_{seed}_{n}")
            injector = FaultInjector([rule], seed=seed)
            _, finished = run_op(dirname, injector, op)
            if finished and not injector.fired:
                failures.append((seed, rule.label(), "never fired"))
                continue
            injector.crash()  # drop every unsynced byte
            entries = recovered_entries(dirname)
            if entries not in (old, new):
                failures.append((seed, rule.label(),
                                 "catalog is neither before nor after"))
            shutil.rmtree(dirname)
    assert not failures, failures[:10]
