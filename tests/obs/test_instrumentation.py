"""Storage instrumentation: counters observe, they never perturb.

The acceptance bar for the observability layer: running the same
workload with the full registry on and with the no-op registry must
produce *identical* IOStats — page reads are the repro's cost metric,
and measuring them may not change them.
"""

from dataclasses import asdict

import pytest

from repro.storage import StorageEnvironment, encode_key


def _workload(env):
    """A mixed workload touching every instrumented path."""
    tree = env.open_tree("data")
    items = [(encode_key((i % 7, i)), b"v" * (i % 50)) for i in range(3000)]
    items.sort()
    tree.bulk_load(items)
    env.drop_caches()
    for i in range(0, 3000, 17):
        tree.get(items[i][0])
    extra = env.open_tree("extra")
    values = {encode_key((i,)): b"x" * 300 for i in range(400)}
    values[encode_key((5,))] = b"y" * 9000  # overflow spill
    extra.bulk_load(sorted(values.items()))
    del values[encode_key((7,))]
    extra.rewrite(sorted(values.items()))
    sum(1 for _ in tree.items())
    env.drop_caches()
    sum(1 for _ in extra.range_items())
    return env.stats.snapshot()


def test_metrics_do_not_perturb_io_counts(tmp_path):
    on = StorageEnvironment(str(tmp_path / "on"), page_size=512,
                            pool_pages=64, metrics=True)
    off = StorageEnvironment(str(tmp_path / "off"), page_size=512,
                             pool_pages=64, metrics=False)
    stats_on = _workload(on)
    stats_off = _workload(off)
    assert asdict(stats_on) == asdict(stats_off)
    on.close()
    off.close()
    # And the instrumented run actually recorded something.
    counters = on.metrics.snapshot()["counters"]
    assert counters["btree.descents{tree=data}"] > 0
    assert counters["pool.misses"] > 0
    assert off.metrics.snapshot()["counters"] == {}


def test_per_tree_counters_are_split_by_name(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), pool_pages=32)
    a, b = env.open_tree("a"), env.open_tree("b")
    a.bulk_load((encode_key((i,)), b"x") for i in range(10))
    b.bulk_load([(encode_key((1,)), b"y")])
    a.get(encode_key((3,)))
    counters = env.metrics.snapshot()["counters"]
    assert counters["btree.bulk_loaded_entries{tree=a}"] == 10
    assert counters["btree.bulk_loaded_entries{tree=b}"] == 1
    assert counters["btree.gets{tree=a}"] == 1
    assert counters["btree.gets{tree=b}"] == 0
    env.close()


def test_pool_and_pager_counters_track_io(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), pool_pages=32)
    tree = env.open_tree("t")
    items = [(encode_key((i,)), b"v" * 40) for i in range(2000)]
    tree.bulk_load(items)
    env.drop_caches()
    for i in (0, 0, 500, 500, 1999):
        tree.get(items[i][0])
    counters = env.metrics.snapshot()["counters"]
    # Pool hits + misses must equal the environment's logical reads.
    assert (counters["pool.hits"] + counters["pool.misses"]
            == env.stats.logical_reads)
    # The pager counter mirrors IOStats physical reads exactly.
    assert counters["pager.physical_reads"] == env.stats.physical_reads
    assert counters["pager.physical_writes"] == env.stats.physical_writes
    env.close()


def test_overflow_and_cursor_counters(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), page_size=512,
                             pool_pages=64)
    tree = env.open_tree("t")
    big = b"z" * 2000  # > page_size/4 -> spilled, multi-page chain
    tree.bulk_load([(encode_key((1,)), big)])
    assert tree.get(encode_key((1,))) == big
    counters = env.metrics.snapshot()["counters"]
    assert counters["btree.overflow_spills{tree=t}"] == 1
    assert counters["btree.overflow_follows{tree=t}"] >= 4  # 2000/~500
    tree.rewrite([(encode_key((1,)), big)]
                 + [(encode_key((i,)), b"s") for i in range(2, 30)])
    counters = env.metrics.snapshot()["counters"]
    assert counters["btree.overflow_spills{tree=t}"] == 2  # re-spilled
    steps_before = counters["btree.cursor_steps{tree=t}"]
    sum(1 for _ in tree.items())
    counters = env.metrics.snapshot()["counters"]
    assert counters["btree.cursor_steps{tree=t}"] == steps_before + 29
    env.close()


def test_environment_tracer_binds_stats_and_registry(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), pool_pages=32)
    tree = env.open_tree("t")
    tree.bulk_load([(encode_key((i,)), b"v") for i in range(500)])
    env.drop_caches()
    tracer = env.tracer()
    with tracer.span("lookup"):
        tree.get(encode_key((250,)))
    span = tracer.roots[0]
    assert span.io["logical_reads"] == tree.height
    assert span.io["physical_reads"] > 0
    hist = env.metrics.snapshot()["histograms"]
    assert hist["span.lookup.ms"]["count"] == 1
    env.close()


def test_bad_metrics_arg_rejected(tmp_path):
    # Anything that is not None/True/False must behave like a registry.
    with pytest.raises(AttributeError):
        StorageEnvironment(str(tmp_path / "db"), metrics=42)
