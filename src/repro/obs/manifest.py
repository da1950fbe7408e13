"""Structured run manifests and the JSONL event sink.

A :class:`RunManifest` is the machine-readable record of one benchmark
(or query) run: run id, git revision, configuration, host environment,
the finished span tree (wall time + I/O deltas per span), and the
registry's counter/histogram snapshot. Benchmarks write one
manifest per run into ``benchmarks/results/`` next to their text/JSON
reports; ``python -m repro.obs.report`` pretty-prints one and diffs two
— the one-command perf-regression check between PRs.

:class:`JsonlSink` is the streaming half: one JSON object per line,
appended as events happen (span completions, custom marks), so a run
killed halfway still leaves its trace on disk.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["JsonlSink", "RunManifest", "environment_info", "git_revision"]

MANIFEST_VERSION = 1


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def environment_info() -> Dict[str, str]:
    """Host facts that make two manifests comparable (or not)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


@dataclass
class RunManifest:
    """Everything needed to interpret one run's numbers later."""

    name: str
    run_id: str
    created: str
    git_rev: Optional[str] = None
    config: Dict = field(default_factory=dict)
    environment: Dict = field(default_factory=dict)
    spans: List[Dict] = field(default_factory=list)
    metrics: Dict = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    # ------------------------------------------------------------------
    @classmethod
    def new(cls, name: str, config: Optional[Dict] = None) -> "RunManifest":
        """A manifest stamped with run id, git rev, and host facts."""
        return cls(
            name=name,
            run_id=uuid.uuid4().hex[:12],
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            git_rev=git_revision(),
            config=dict(config or {}),
            environment=environment_info(),
        )

    def finish(self, tracer=None, registry=None) -> "RunManifest":
        """Attach a tracer's span tree and a registry snapshot."""
        if tracer is not None:
            self.spans = tracer.to_dicts()
        if registry is not None:
            self.metrics = registry.snapshot()
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "name": self.name,
            "run_id": self.run_id,
            "created": self.created,
            "git_rev": self.git_rev,
            "config": self.config,
            "environment": self.environment,
            "spans": self.spans,
            "metrics": self.metrics,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        return cls(
            name=data["name"],
            run_id=data["run_id"],
            created=data["created"],
            git_rev=data.get("git_rev"),
            config=data.get("config", {}),
            environment=data.get("environment", {}),
            spans=data.get("spans", []),
            metrics=data.get("metrics", {}),
            extra=data.get("extra", {}),
            version=data.get("version", MANIFEST_VERSION),
        )

    def save(self, path: str) -> str:
        """Write the manifest as pretty JSON; returns the path."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return self.metrics.get("counters", {})

    def histograms(self) -> Dict[str, Dict]:
        return self.metrics.get("histograms", {})

    def __repr__(self) -> str:
        return (
            f"RunManifest({self.name!r}, run_id={self.run_id}, "
            f"spans={len(self.spans)})"
        )


class JsonlSink:
    """Append-only JSON-lines event stream (one object per line)."""

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "w")

    def emit(self, record: Dict) -> None:
        if self._handle is None:
            raise ValueError(f"sink {self.path!r} is closed")
        json.dump(record, self._handle, sort_keys=True)
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def read(path: str) -> List[Dict]:
        """All records of a JSONL file (skips blank lines)."""
        records = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records
