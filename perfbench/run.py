"""Run one workload of the Caldera benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan_dense --seed 7 --seconds 20 --trace 0

Set-up generates the workload's streams from ``--seed`` and archives
them into fresh databases (``SETUP_REPEATS`` times, reporting the
median). The oracle then computes every expected answer from the
in-memory streams. The measured phase runs rounds of the workload's op
mix in a closed loop until ``--seconds`` have passed, finishing the
round in progress, and checks every answer.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and prints the per-layer metrics. The last
line of standard output is one JSON object.

Every time is CPU time of this process (``time.process_time``), not
wall time: on a small shared virtual machine the hypervisor steals the
CPU in bursts lasting minutes, which moved wall-time medians of one
workload by up to 74% between runs while CPU time moved by under 10%.
The engine is single-threaded and CPU-bound, so on a quiet machine the
two agree except for time blocked in fsync. Wall times are printed for
information, outside the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layertrace
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``op_tail_ms`` is the highest percentile with this many ops beyond it.
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    #: CPU seconds of the op.
    seconds: float
    wall_seconds: float
    steps: int
    logical_reads: int
    physical_reads: int
    physical_writes: int
    traced: bool
    #: The access method that ran (query ops), else None.
    method: Optional[str] = None
    #: The query's AccessStats (query ops), else None.
    stats: object = None


def run_round(workload, index: int, tracer):
    """One pass over the op mix: the ops it attempted, their records,
    and one error per failed op. Ops are timed and counted with the
    tracer installed (when given); answers are checked afterwards,
    untraced."""
    workload.begin_round(index)
    ops = workload.ops()
    records: List[OpRecord] = []
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            io = workload.db.stats
            before = io.snapshot()
            try:
                t0, w0 = time.process_time(), time.perf_counter()
                result = op.run()
                seconds = time.process_time() - t0
                wall = time.perf_counter() - w0
            except Exception:  # a failed op counts; the loop goes on
                outcomes.append((op, None, traceback.format_exc()))
                continue
            delta = io.delta(before)
            records.append(OpRecord(
                seconds, wall, op.steps, delta.logical_reads,
                delta.physical_reads, delta.physical_writes,
                tracer is not None, getattr(result, "method", None),
                getattr(result, "stats", None)))
            outcomes.append((op, result, None))
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors = []
    for op, result, error in outcomes:
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            errors.append(f"{op.label}: {error}")
    workload.end_round()
    return len(ops), records, errors


def tail(seconds: List[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` ops beyond it, and
    that percentile (the largest value when there are fewer ops)."""
    ordered = sorted(seconds)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def per_step(records: List[OpRecord], attr: str) -> float:
    return sum(getattr(r, attr) for r in records) / \
        sum(r.steps for r in records)


def end_to_end(workload, records, setup_times, setup_walls, attempted,
               failed):
    times = [r.seconds for r in records]
    tail_s, tail_pct = tail(times)
    metrics = {
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "us_per_step": (per_step(records, "seconds") * 1e6, "us"),
        "logical_reads_per_step": (per_step(records, "logical_reads"),
                                   "pages"),
        "pages_written_per_step": (
            workload.pages_written / workload.archived_steps, "pages"),
        "bytes_per_step": (
            workload.stored_bytes / workload.archived_steps, "bytes"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB"),
    }
    walls = [r.wall_seconds for r in records]
    notes = {
        "op_p50_ms": f"wall {statistics.median(walls) * 1e3:.3f} ms",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(times)} ops",
        "us_per_step": f"wall {per_step(records, 'wall_seconds') * 1e6:.3f} us",
        "setup_s": f"median of {len(setup_times)} set-ups, "
                   f"wall {statistics.median(setup_walls):.3f} s",
    }
    extra = [("error_rate", failed / attempted, "ratio",
              f"{failed} of {attempted} ops")]
    return metrics, notes, extra


def per_layer(tracer, traced: List[OpRecord], untraced: List[OpRecord],
              rounds: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced rounds, per round."""
    calls, ns = tracer.calls, tracer.self_ns

    def count(bucket):
        return calls[bucket] / rounds

    def us(*buckets):
        return sum(ns[b] for b in buckets) / 1e3 / rounds

    steps = sum(r.steps for r in traced)
    logical = sum(r.logical_reads for r in traced)
    physical = sum(r.physical_reads for r in traced)
    queries = [r for r in traced if r.stats is not None]
    topk = [r.stats for r in queries if r.method == "topk"]
    examined = sum(s.candidates_examined for s in topk)
    updates = calls["lahar.update"]
    update_us = us("lahar.update", "lahar.span")
    op_ns = sum(r.seconds for r in traced) * 1e9

    m = {
        "storage.get_calls": (count("storage.get"), "count/round"),
        "storage.get_us": (us("storage.get"), "us/round"),
        "storage.pool_hit_rate": (
            1.0 - physical / logical if logical else 1.0, "ratio"),
        "storage.physical_reads": (physical / rounds, "count/round"),
        "storage.bulk_load_us": (us("storage.bulk_load"), "us/round"),
        "storage.page_writes": (
            sum(r.physical_writes for r in traced) / rounds, "count/round"),
        "storage.fsyncs": (count("storage.fsync"), "count/round"),
        "probability.cpt_decode_calls": (
            count("probability.cpt_decode"), "count/round"),
        "probability.cpt_decode_us": (
            us("probability.cpt_decode"), "us/round"),
        "probability.dist_decode_us": (
            us("probability.dist_decode"), "us/round"),
        "probability.compose_calls": (
            count("probability.compose"), "count/round"),
        "probability.compose_us": (us("probability.compose"), "us/round"),
        "streams.reader_us": (us("streams.reader"), "us/round"),
        "streams.write_us": (us("streams.write"), "us/round"),
        "lahar.reg_updates": (updates / rounds, "count/round"),
        "lahar.reg_update_us": (update_us, "us/round"),
        "lahar.us_per_update": (
            update_us * rounds / updates if updates else 0.0, "us"),
        "indexes.cursor_calls": (count("indexes.cursor"), "count/round"),
        "indexes.cursor_us": (us("indexes.cursor"), "us/round"),
        "indexes.mc_lookups": (
            sum(s.stats.mc_lookups.lookups for s in queries) / rounds,
            "count/round"),
        "indexes.mc_pieces": (
            sum(s.stats.mc_lookups.pieces for s in queries) / rounds,
            "count/round"),
        "indexes.mc_compute_us": (us("indexes.mc_compute"), "us/round"),
        "indexes.btc_build_us": (us("indexes.btc_build"), "us/round"),
        "indexes.btp_build_us": (us("indexes.btp_build"), "us/round"),
        "indexes.mc_build_us": (us("indexes.mc_build"), "us/round"),
        "access.driver_us": (us("access.driver"), "us/round"),
        "access.updates_per_step": (updates / steps, "1/step"),
        "access.prune_ratio": (
            sum(s.candidates_pruned for s in topk) / examined
            if examined else 0.0, "ratio"),
        "core.context_us": (us("core.context"), "us/round"),
        "core.parse_us": (us("core.parse"), "us/round"),
        "core.plan_us": (us("core.plan"), "us/round"),
    }
    for method in ("naive", "btree", "topk", "mc", "semi"):
        m[f"core.plans.{method}"] = (
            sum(r.method == method for r in queries) / rounds, "count/round")
    attributed = 0.0
    for layer in layertrace.LAYERS:
        share = tracer.layer_ns(layer) / op_ns
        attributed += share
        m[f"share.{layer}"] = (share, "ratio")
    m["share.other"] = (1.0 - attributed, "ratio")
    traced_us = per_step(traced, "seconds") * 1e6
    untraced_us = per_step(untraced, "seconds") * 1e6
    m["trace.us_per_step"] = (traced_us, "us")
    m["trace.untraced_us_per_step"] = (untraced_us, "us")
    m["trace.overhead"] = (traced_us / untraced_us, "ratio")
    m["trace.logical_reads_per_step"] = (
        per_step(traced, "logical_reads"), "pages")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan_dense", "index_sparse", "archive"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no Caldera sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    traced_run = bool(args.trace)
    workload = workloads.make(args.workload)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times, setup_walls = [], []
        for i in range(1 if traced_run else SETUP_REPEATS):
            t0, w0 = time.process_time(), time.perf_counter()
            workload.setup(scratch / f"setup{i}", args.seed)
            setup_times.append(time.process_time() - t0)
            setup_walls.append(time.perf_counter() - w0)
        workload.prepare_oracle(oracle.load_reference_reg(ROOT))

        tracer = layertrace.Tracer() if traced_run else None
        records: List[OpRecord] = []
        errors: List[str] = []
        attempted = 0
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        # Traced runs alternate traced and untraced rounds and end on an
        # untraced one, so both halves see the same ops.
        while rounds < (2 if traced_run else 1) or \
                time.perf_counter() < deadline or (traced_run and rounds % 2):
            traced_round = traced_run and rounds % 2 == 0
            ops, recs, errs = run_round(workload, rounds,
                                        tracer if traced_round else None)
            attempted += ops
            records.extend(recs)
            errors.extend(errs)
            rounds += 1
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = len(errors)
    for error in errors[:5]:
        print(f"failed op: {error}", file=sys.stderr)
    correct = failed == 0
    if traced_run:
        traced = [r for r in records if r.traced]
        untraced = [r for r in records if not r.traced]
        metrics = per_layer(tracer, traced, untraced, rounds // 2)
        # Instrumentation must never change I/O counts.
        if per_step(traced, "logical_reads") != \
                per_step(untraced, "logical_reads"):
            print("error: tracing changed logical reads", file=sys.stderr)
            correct = False
        notes, extra = {}, []
        if tracer.missing:
            print("trace targets not found: " + ", ".join(tracer.missing))
    else:
        metrics, notes, extra = end_to_end(workload, records, setup_times,
                                           setup_walls, attempted, failed)

    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds, "
          f"{len(records)} ops, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:16.6f} {unit}{note}")
    for name, value, unit, note in extra:
        print(f"  {name:34s} {value:16.6f} {unit}  ({note})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
