"""Registry behavior, label keying, and log-scale histogram bucketing."""

import pytest

from repro.obs import MetricsRegistry


def test_counter_identity_and_increment():
    reg = MetricsRegistry()
    c = reg.counter("planner.fallbacks")
    c.inc()
    c.inc(4)
    assert c.value == 5
    # Same name -> same instrument.
    assert reg.counter("planner.fallbacks") is c


def test_labels_key_separate_instruments():
    reg = MetricsRegistry()
    a = reg.counter("planner.fallbacks", reason="a")
    b = reg.counter("planner.fallbacks", reason="b")
    assert a is not b
    a.inc(3)
    assert b.value == 0
    assert a.name == "planner.fallbacks{reason=a}"
    # Label order must not matter.
    x = reg.counter("q", s="1", t="2")
    assert reg.counter("q", t="2", s="1") is x


def test_histogram_power_of_two_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in (1, 2, 3, 4, 5, 8, 9):
        h.observe(v)
    edges = dict(h.buckets())
    # 1 -> edge 1; 2 -> edge 2; 3,4 -> edge 4; 5,8 -> edge 8; 9 -> edge 16.
    assert edges == {1.0: 1, 2.0: 1, 4.0: 2, 8.0: 2, 16.0: 1}
    assert h.count == 7
    assert h.min == 1 and h.max == 9


def test_histogram_zero_and_fractional_buckets():
    h = MetricsRegistry().histogram("h")
    h.observe(0)
    h.observe(0.3)  # edge 0.5
    h.observe(0.5)  # edge 0.5
    edges = dict(h.buckets())
    assert edges == {0.0: 1, 0.5: 2}


def test_histogram_rejects_negative():
    h = MetricsRegistry().histogram("h")
    with pytest.raises(ValueError):
        h.observe(-1)


def test_histogram_percentiles_clamped_to_max():
    h = MetricsRegistry().histogram("h")
    for _ in range(99):
        h.observe(3)
    h.observe(1000)
    # p50 falls in the 3-bucket (upper edge 4, clamped only by max).
    assert h.percentile(0.5) == 4
    # p100 must not exceed the observed max even though the bucket edge
    # is 1024.
    assert h.percentile(1.0) == 1000
    with pytest.raises(ValueError):
        h.percentile(1.5)


def test_histogram_empty_summary():
    h = MetricsRegistry().histogram("h")
    s = h.summary()
    assert s["count"] == 0
    assert s["p50"] == 0.0
    assert s["buckets"] == []


def test_registry_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("c", tree="t").inc(2)
    reg.histogram("h").observe(7)
    snap = reg.snapshot()
    assert set(snap) == {"counters", "histograms"}
    assert snap["counters"] == {"c{tree=t}": 2}
    assert snap["histograms"]["h"]["count"] == 1
    assert snap["histograms"]["h"]["p50"] == 7
