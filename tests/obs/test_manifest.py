"""Run manifests: round trips, the report CLI, and the JSONL sink."""

import io
import json
from pathlib import Path

import pytest

from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    RunManifest,
    Tracer,
    environment_info,
    git_revision,
)
from repro.obs.report import main as report_main
from repro.storage.stats import IOStats


def _sample_manifest(name="bench", reads=5):
    stats = IOStats()
    registry = MetricsRegistry()
    tracer = Tracer(io=stats, registry=registry)
    with tracer.span("phase"):
        stats.logical_reads += reads
        stats.physical_reads += reads // 2
        registry.counter("pool.hits").inc(reads)
        registry.histogram("lookup.reads").observe(reads)
    return RunManifest.new(name, {"n": reads}).finish(tracer, registry)


def test_manifest_round_trip(tmp_path):
    manifest = _sample_manifest()
    path = manifest.save(str(tmp_path / "run.manifest.json"))
    loaded = RunManifest.load(path)
    assert loaded.to_dict() == manifest.to_dict()
    assert loaded.run_id == manifest.run_id
    assert loaded.spans[0]["name"] == "phase"
    assert loaded.spans[0]["io"]["logical_reads"] == 5
    assert loaded.counters()["pool.hits"] == 5
    assert loaded.histograms()["lookup.reads"]["count"] == 1


def test_manifest_file_is_plain_json(tmp_path):
    path = _sample_manifest().save(str(tmp_path / "m.json"))
    with open(path) as handle:
        data = json.load(handle)
    assert data["version"] == 1
    assert set(data) >= {
        "name", "run_id", "created", "git_rev", "config",
        "environment", "spans", "metrics",
    }


def test_new_manifest_is_stamped():
    manifest = RunManifest.new("x")
    assert manifest.run_id
    assert manifest.created
    assert manifest.environment.get("python")
    # In this repo the git rev resolves; elsewhere None is legal.
    rev = git_revision()
    if rev is not None:
        assert manifest.git_rev == rev
        assert len(rev) == 40
    assert set(environment_info()) >= {"python", "platform"}


def test_jsonl_sink_round_trip(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with JsonlSink(path) as sink:
        sink.emit({"type": "a", "n": 1})
        sink.emit({"type": "b", "nested": {"x": [1, 2]}})
    assert JsonlSink.read(path) == [
        {"type": "a", "n": 1},
        {"type": "b", "nested": {"x": [1, 2]}},
    ]
    with pytest.raises(ValueError):
        sink.emit({"late": True})  # the context manager closed it


def test_report_show(tmp_path):
    path = _sample_manifest().save(str(tmp_path / "m.json"))
    out = io.StringIO()
    assert report_main([path], out=out) == 0
    text = out.getvalue()
    assert "phase" in text
    assert "pool.hits" in text
    assert "lookup.reads" in text


def test_report_diff_flags_counter_changes(tmp_path):
    a = _sample_manifest("old", reads=5).save(str(tmp_path / "a.json"))
    b = _sample_manifest("new", reads=9).save(str(tmp_path / "b.json"))
    out = io.StringIO()
    assert report_main([a, b], out=out) == 0
    text = out.getvalue()
    assert "pool.hits: 5 -> 9" in text
    assert "[+4]" in text
    # --fail-on-change propagates the regression signal as exit code.
    assert report_main([a, b, "--fail-on-change"], out=io.StringIO()) == 1
    assert report_main([a, a, "--fail-on-change"], out=io.StringIO()) == 0


def test_report_missing_file_errors(tmp_path):
    assert report_main([str(tmp_path / "absent.json")]) == 2


BASELINES = sorted(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "baselines")
    .glob("*.manifest.json"))


def test_baselines_are_found():
    assert len(BASELINES) >= 4


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_committed_baseline_loads_and_diffs_clean_against_itself(path):
    """The guards diff a fresh run against these files; older manifests
    still carry a ``gauges`` section, which loading ignores."""
    f = str(path)
    assert report_main([f], out=io.StringIO()) == 0
    assert report_main([f, f, "--fail-on-change"], out=io.StringIO()) == 0
