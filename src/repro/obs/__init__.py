"""Observability: metrics, span tracing, and structured run manifests.

The measurement backbone of the reproduction. The repo's comparable
cost metric is page reads, not wall-clock (DESIGN.md substitution 1),
so every layer reports through this package:

- :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters
  and base-2 log-scale histograms, fed by the query level (planner
  fallbacks and cost errors, span latencies). Page I/O is counted only
  in :class:`~repro.storage.stats.IOStats`.
- :mod:`~repro.obs.tracing` — a :class:`Tracer` of nested spans, each
  capturing wall time and the :class:`~repro.storage.stats.IOStats`
  delta over its extent.
- :mod:`~repro.obs.manifest` — :class:`RunManifest` (run id, git rev,
  config, environment, span tree, metric snapshot) and
  :class:`JsonlSink` for streaming span events.
- :mod:`~repro.obs.report` — ``python -m repro.obs.report`` renders one
  manifest or diffs two (counter deltas, percentile shifts).

Instruments and spans observe; they never read or write pages, so
tracing a workload changes its measured logical/physical read counts by
exactly zero.
"""

from .manifest import JsonlSink, RunManifest, environment_info, git_revision
from .metrics import Counter, Histogram, MetricsRegistry
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "RunManifest",
    "Span",
    "Tracer",
    "environment_info",
    "git_revision",
]
