"""Nested spans: structure, I/O attribution, sinks, and histograms."""

from repro.obs import JsonlSink, MetricsRegistry, Tracer
from repro.storage.stats import IOStats


def test_nested_span_structure():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner_a"):
            pass
        with tracer.span("inner_b", detail=7):
            pass
    assert len(tracer.roots) == 1
    root = tracer.roots[0]
    assert root.name == "outer"
    assert [c.name for c in root.children] == ["inner_a", "inner_b"]
    assert root.children[1].attrs == {"detail": 7}
    assert root.wall_ms >= max(c.wall_ms for c in root.children)
    d = tracer.to_dicts()[0]
    assert d["name"] == "outer"
    assert [c["name"] for c in d["children"]] == ["inner_a", "inner_b"]


def test_span_io_delta_attribution():
    stats = IOStats()
    tracer = Tracer(io=stats)
    with tracer.span("parent"):
        stats.logical_reads += 2
        with tracer.span("child"):
            stats.logical_reads += 3
            stats.physical_reads += 1
        stats.physical_writes += 5
    parent, child = tracer.roots[0], tracer.roots[0].children[0]
    assert child.io["logical_reads"] == 3
    assert child.io["physical_reads"] == 1
    assert child.io["physical_writes"] == 0
    # The parent's delta includes the child's (monotonic counters) ...
    assert parent.io["logical_reads"] == 5
    assert parent.io["physical_writes"] == 5
    # ... and self_io() subtracts it back out.
    assert parent.self_io()["logical_reads"] == 2
    assert parent.self_io()["physical_reads"] == 0
    assert parent.self_io()["physical_writes"] == 5


def test_per_span_io_override():
    a, b = IOStats(), IOStats()
    tracer = Tracer(io=a)
    with tracer.span("default"):
        a.logical_reads += 1
        b.logical_reads += 10
    with tracer.span("override", io=b):
        b.physical_reads += 4
    assert tracer.roots[0].io["logical_reads"] == 1
    assert tracer.roots[1].io["physical_reads"] == 4
    assert tracer.roots[1].io["logical_reads"] == 0


def test_span_without_io_source():
    tracer = Tracer()
    with tracer.span("untracked"):
        pass
    assert tracer.roots[0].io is None
    assert tracer.roots[0].self_io() is None
    assert "io" not in tracer.to_dicts()[0]


def test_registry_receives_span_latencies():
    reg = MetricsRegistry()
    tracer = Tracer(registry=reg)
    for _ in range(3):
        with tracer.span("op"):
            pass
    assert reg.histogram("span.op.ms").count == 3


def test_sink_receives_one_line_per_span(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    stats = IOStats()
    with JsonlSink(path) as sink:
        tracer = Tracer(io=stats, sink=sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                stats.logical_reads += 1
    records = JsonlSink.read(path)
    # Children finish first, so inner precedes outer; no nested copies.
    assert [(r["name"], r["depth"]) for r in records] == [
        ("inner", 1), ("outer", 0),
    ]
    assert all("children" not in r for r in records)
    assert records[0]["io"]["logical_reads"] == 1


def test_walk_and_active():
    tracer = Tracer()
    with tracer.span("a"):
        assert tracer.active.name == "a"
        with tracer.span("b"):
            assert tracer.active.name == "b"
    assert tracer.active is None
    assert [s.name for s in tracer.roots[0].walk()] == ["a", "b"]
