"""Counters and log-scale histograms behind one registry.

The registry is the passive half of the observability layer. Each
storage environment owns one, and the query level feeds it: the
planner's ``planner.fallbacks`` counter and ``planner.cost_error``
histogram, and the tracer's ``span.<name>.ms`` latency histograms.
Page I/O is not counted here; :class:`~repro.storage.stats.IOStats` is
its only ledger, and no instrument reads or writes a page.

Every instrument is created on first use and lives for the registry's
lifetime. Instruments are keyed by name plus optional labels, e.g.
``registry.counter("planner.fallbacks", reason="no_mc_index")`` keys as
``planner.fallbacks{reason=no_mc_index}``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
]


def _key(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A base-2 log-scale histogram of non-negative observations.

    Each positive observation lands in the bucket whose upper edge is
    the smallest power of two ``>= value`` (zeros get their own bucket),
    so forty buckets span nanoseconds to hours and one-page to
    million-page costs alike. Percentile estimates quote the bucket's
    upper edge clamped to the observed ``max`` — exact enough for the
    order-of-magnitude latency and per-op page-read distributions the
    benchmarks report.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # exponent -> count; zeros live under the key None.
        self._buckets: Dict[Optional[int], int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"{self.name}: negative observation {value!r}")
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value == 0:
            exponent: Optional[int] = None
        else:
            mantissa, exponent = math.frexp(value)  # value = m * 2**e
            if mantissa == 0.5:  # exact powers of two bound their own bucket
                exponent -= 1
        self._buckets[exponent] = self._buckets.get(exponent, 0) + 1

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> Iterator[Tuple[float, int]]:
        """``(upper_edge, count)`` pairs in ascending edge order."""
        for exponent in sorted(
            self._buckets, key=lambda e: -math.inf if e is None else e
        ):
            edge = 0.0 if exponent is None else float(2 ** exponent)
            yield edge, self._buckets[exponent]

    def percentile(self, p: float) -> float:
        """Estimated value at quantile ``p`` in [0, 1]."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile {p} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = p * self.count
        seen = 0
        for edge, count in self.buckets():
            seen += count
            if seen >= rank:
                return min(edge, self.max if self.max is not None else edge)
        return self.max if self.max is not None else 0.0

    def summary(self) -> Dict:
        """The JSON-ready digest stored in run manifests."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "buckets": [[edge, count] for edge, count in self.buckets()],
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named instruments, created on first use and never discarded."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(key)
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(key)
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """All instrument values, JSON-ready (manifest ``metrics``)."""
        return {
            "counters": {
                key: c.value for key, c in sorted(self._counters.items())
            },
            "histograms": {
                key: h.summary()
                for key, h in sorted(self._histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._histograms)} histograms)"
        )
