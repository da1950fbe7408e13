"""Render and diff run manifests.

::

    python -m repro.obs.report RUN.manifest.json           # pretty-print
    python -m repro.obs.report OLD.manifest.json NEW.manifest.json

One argument prints the run: header, span tree with per-span wall time
and I/O deltas, counters, and histogram percentiles. Two arguments diff
them — counter deltas and histogram percentile shifts — which makes
"did this PR change the cost model?" a one-command check.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .manifest import RunManifest

# Span I/O columns, in display order (matches IOStats fields).
_IO_FIELDS = [
    ("logical_reads", "lr"),
    ("physical_reads", "pr"),
    ("physical_writes", "pw"),
    ("evictions", "ev"),
]


def _fmt_io(io: Optional[Dict[str, int]]) -> str:
    if not io:
        return ""
    parts = [
        f"{short}={io[field]}"
        for field, short in _IO_FIELDS
        if io.get(field)
    ]
    return " ".join(parts) if parts else "io=0"


def _print_span(span: Dict, out, depth: int = 0) -> None:
    indent = "  " * depth
    attrs = span.get("attrs") or {}
    attr_text = (
        " [" + ", ".join(f"{k}={v}" for k, v in attrs.items()) + "]"
        if attrs else ""
    )
    io_text = _fmt_io(span.get("io"))
    print(
        f"{indent}{span['name']}{attr_text}: "
        f"{span.get('wall_ms', 0.0):.3f} ms"
        + (f"  ({io_text})" if io_text else ""),
        file=out,
    )
    for child in span.get("children", []):
        _print_span(child, out, depth + 1)


def show(manifest: RunManifest, out) -> None:
    print(f"run {manifest.run_id}  [{manifest.name}]", file=out)
    print(f"  created: {manifest.created}", file=out)
    print(f"  git rev: {manifest.git_rev or '(unknown)'}", file=out)
    env = manifest.environment
    if env:
        print(
            f"  host:    {env.get('implementation', '?')} "
            f"{env.get('python', '?')} on {env.get('platform', '?')}",
            file=out,
        )
    if manifest.config:
        print("  config:", file=out)
        for key in sorted(manifest.config):
            print(f"    {key} = {manifest.config[key]}", file=out)

    if manifest.spans:
        print("\nspans (wall ms, I/O delta over extent):", file=out)
        for span in manifest.spans:
            _print_span(span, out, depth=1)

    counters = manifest.counters()
    if counters:
        print("\ncounters:", file=out)
        width = max(len(k) for k in counters)
        for key in sorted(counters):
            print(f"  {key.ljust(width)}  {counters[key]}", file=out)

    histograms = manifest.histograms()
    if histograms:
        print("\nhistograms (count / mean / p50 / p90 / p99 / max):",
              file=out)
        for key in sorted(histograms):
            h = histograms[key]
            print(
                f"  {key}: n={h['count']} mean={h['mean']:.3f} "
                f"p50={h['p50']:.3f} p90={h['p90']:.3f} "
                f"p99={h['p99']:.3f} max={h['max']:.3f}",
                file=out,
            )


def _top_spans(manifest: RunManifest) -> Dict[str, Dict]:
    """Root spans and their direct children, keyed by path."""
    out: Dict[str, Dict] = {}
    for root in manifest.spans:
        out.setdefault(root["name"], root)
        for child in root.get("children", []):
            out.setdefault(f"{root['name']}/{child['name']}", child)
    return out


def diff(old: RunManifest, new: RunManifest, out) -> int:
    """Print counter/histogram/span deltas; returns 1 if any counter
    moved (useful as a CI cost-regression signal), else 0."""
    print(
        f"diff {old.run_id} ({old.name}, {old.git_rev or '?'}) "
        f"-> {new.run_id} ({new.name}, {new.git_rev or '?'})",
        file=out,
    )
    changed = 0

    old_counters, new_counters = old.counters(), new.counters()
    keys = sorted(set(old_counters) | set(new_counters))
    rows: List[str] = []
    for key in keys:
        a, b = old_counters.get(key, 0), new_counters.get(key, 0)
        if a == b:
            continue
        changed += 1
        pct = f" ({(b - a) / a * 100.0:+.1f}%)" if a else ""
        rows.append(f"  {key}: {a} -> {b}  [{b - a:+d}]{pct}")
    print(f"\ncounters ({changed} changed, {len(keys) - changed} same):",
          file=out)
    for row in rows:
        print(row, file=out)

    old_hists, new_hists = old.histograms(), new.histograms()
    shared = sorted(set(old_hists) & set(new_hists))
    if shared:
        print("\nhistograms (old -> new):", file=out)
        for key in shared:
            a, b = old_hists[key], new_hists[key]
            print(
                f"  {key}: n {a['count']} -> {b['count']}, "
                f"p50 {a['p50']:.3f} -> {b['p50']:.3f}, "
                f"p99 {a['p99']:.3f} -> {b['p99']:.3f}",
                file=out,
            )

    old_spans, new_spans = _top_spans(old), _top_spans(new)
    shared_spans = [k for k in old_spans if k in new_spans]
    if shared_spans:
        print("\nspans (wall ms, logical/physical reads old -> new):",
              file=out)
        for key in shared_spans:
            a, b = old_spans[key], new_spans[key]
            line = (
                f"  {key}: {a.get('wall_ms', 0.0):.1f} -> "
                f"{b.get('wall_ms', 0.0):.1f} ms"
            )
            a_io, b_io = a.get("io") or {}, b.get("io") or {}
            if a_io or b_io:
                line += (
                    f", lr {a_io.get('logical_reads', 0)} -> "
                    f"{b_io.get('logical_reads', 0)}"
                    f", pr {a_io.get('physical_reads', 0)} -> "
                    f"{b_io.get('physical_reads', 0)}"
                )
            print(line, file=out)

    return 1 if changed else 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Pretty-print one run manifest, or diff two.",
    )
    parser.add_argument("manifest", help="a RunManifest JSON file")
    parser.add_argument("other", nargs="?", default=None,
                        help="a second manifest to diff against")
    parser.add_argument("--fail-on-change", action="store_true",
                        help="exit 1 when a diff shows counter changes")
    args = parser.parse_args(argv)

    try:
        first = RunManifest.load(args.manifest)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.manifest}: {exc}", file=sys.stderr)
        return 2
    if args.other is None:
        show(first, out)
        return 0
    try:
        second = RunManifest.load(args.other)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.other}: {exc}", file=sys.stderr)
        return 2
    moved = diff(first, second, out)
    return moved if args.fail_on_change else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
