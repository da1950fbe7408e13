"""Instrumentation observes, it never perturbs.

The acceptance bar for the observability layer: running the same
workload traced and untraced must produce *identical* IOStats — page
reads are the repro's cost metric, and measuring them may not change
them. IOStats is the storage engine's only ledger; the environment's
registry carries query-level metrics and span latencies only.
"""

from dataclasses import asdict

import pytest

from repro.obs import MetricsRegistry
from repro.storage import StorageEnvironment, encode_key


def _workload(env):
    """A mixed workload touching every storage path."""
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


def test_tracing_does_not_perturb_io_counts(tmp_path):
    traced = StorageEnvironment(str(tmp_path / "traced"), page_size=512,
                                pool_pages=64)
    plain = StorageEnvironment(str(tmp_path / "plain"), page_size=512,
                               pool_pages=64)
    tracer = traced.tracer()
    with tracer.span("workload"):
        stats_traced = _workload(traced)
    stats_plain = _workload(plain)
    assert asdict(stats_traced) == asdict(stats_plain)
    assert tracer.roots[0].io["logical_reads"] == stats_plain.logical_reads
    traced.close()
    plain.close()
    # Storage reports nothing through the registry: only the span did.
    snap = traced.metrics.snapshot()
    assert snap["counters"] == {}
    assert list(snap["histograms"]) == ["span.workload.ms"]


def test_overflow_values_and_cursors_survive_a_rewrite(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), page_size=512,
                             pool_pages=64)
    tree = env.open_tree("t")
    big = b"z" * 2000  # > page_size/4 -> spilled, multi-page chain
    tree.bulk_load([(encode_key((1,)), big)])
    assert tree.get(encode_key((1,))) == big
    assert tree.check().overflow_pages >= 4  # 2000 / ~500
    tree.rewrite([(encode_key((1,)), big)]
                 + [(encode_key((i,)), b"s") for i in range(2, 30)])
    assert tree.get(encode_key((1,))) == big  # re-spilled
    items = list(tree.items())
    assert len(items) == 29
    assert items[0] == (encode_key((1,)), big)
    report = env.fsck()
    assert report.clean, report.all_errors()
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


def test_registry_is_not_an_option(tmp_path):
    with pytest.raises(TypeError):
        StorageEnvironment(str(tmp_path / "db"), metrics=MetricsRegistry())
    env = StorageEnvironment(str(tmp_path / "db"))
    assert type(env.metrics) is MetricsRegistry
    env.close()
