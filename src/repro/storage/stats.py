"""I/O accounting shared by every file of a storage environment.

The buffer pool counts a *logical read* for every page access, and the
pager counts a *physical read/write* for every page that actually moves
between the process and the file. The logical/physical split is the
measurement substrate of every benchmark: on a warm pool a workload's
physical reads drop to zero while its logical reads stay put, so cache
effectiveness is directly visible in the counters (see DESIGN.md,
substitution 1: page reads replace BDB wall-clock as the comparable
cost metric).

The pool also counts an *eviction* for every frame it drops (capacity
pressure or an explicit cold-cache reset). Trees are written whole,
straight through the pager, so page writes are counted only there.

Span tracing (:mod:`repro.obs.tracing`) snapshots and deltas this
struct around every traced extent, so all four counters appear per-span
in run manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class IOStats:
    """Monotonic I/O counters (one instance per storage environment)."""

    logical_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    evictions: int = 0

    # ------------------------------------------------------------------
    def snapshot(self) -> "IOStats":
        """A frozen copy of the current counter values."""
        return IOStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def delta(self, since: "IOStats") -> "IOStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        return IOStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Buffer-pool hit rate: fraction of logical reads served from
        cache (1.0 when nothing has been read)."""
        if self.logical_reads <= 0:
            return 1.0
        hits = self.logical_reads - self.physical_reads
        return max(0.0, hits / self.logical_reads)

    def summary(self) -> str:
        return (
            f"{self.logical_reads} logical / {self.physical_reads} physical "
            f"reads, {self.physical_writes} physical writes, "
            f"{self.evictions} evictions "
            f"({self.hit_rate * 100.0:.1f}% hit rate)"
        )
