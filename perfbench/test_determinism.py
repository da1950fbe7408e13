"""The benchmark's own checks: answers are right on two seeds, the
deterministic metrics repeat exactly for one seed, and tracing never
changes I/O counts.

Run from the repository root (takes a few minutes)::

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent

#: End-to-end metrics that are counts, not times.
DETERMINISTIC = ("logical_reads_per_step", "pages_written_per_step",
                 "bytes_per_step")
#: Per-layer metrics that are counts (or ratios of counts).
COUNTS = (
    "storage.get_calls", "storage.page_writes", "storage.fsyncs",
    "probability.cpt_decode_calls", "probability.compose_calls",
    "lahar.reg_updates", "indexes.cursor_calls", "indexes.mc_lookups",
    "indexes.mc_pieces", "access.updates_per_step", "access.prune_ratio",
    "core.plans.naive", "core.plans.btree", "core.plans.topk",
    "core.plans.mc", "core.plans.semi", "trace.logical_reads_per_step",
)


def run(workload: str, trace: int, *seed_args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "1",
         "--trace", str(trace), *seed_args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["scan_dense", "index_sparse",
                                      "archive"])
def test_counts_repeat_and_tracing_keeps_io(workload):
    first, second = run(workload, 0), run(workload, 0)
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    traced, traced_again = run(workload, 1), run(workload, 1)
    for name in COUNTS:
        assert traced[name] == traced_again[name], name
    assert traced["trace.logical_reads_per_step"] == \
        first["logical_reads_per_step"]
    if workload == "archive":
        assert traced["lahar.reg_updates"] == 0


@pytest.mark.parametrize("workload", ["scan_dense", "index_sparse",
                                      "archive"])
def test_another_seed_answers_correctly(workload):
    run(workload, 0, "--seed", "11")


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "archive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
