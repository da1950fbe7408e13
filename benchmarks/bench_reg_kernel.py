"""Reg kernel microbenchmark: vectorized vs reference implementation,
and block vs per-step execution from stored records.

The vectorized Reg (:class:`repro.lahar.reg.Reg`) enumerates the DFA
sets a query can occupy once, at construction, and carries the joint
(DFA-set x stream-state) mass as a fixed ``R x n`` NumPy matrix; one
timestep is one matmul plus one ``bincount`` through a precomputed
successor index. The reference (``ReferenceReg`` in
``tests/reference_reg.py``) walks dict-of-dicts in Python, paying
O(nnz) dict arithmetic per occupied DFA set, so the gap widens with
query complexity: the three-hop patrol query occupies more sets than
Entered-Room.

The two ``records`` rows start from the stored CPT records, as an
access method does: ``records-step`` decodes each with
``CPT.from_bytes`` and calls ``Reg.update``; ``records-block`` decodes
``Reg.block_steps`` records at a time with ``decode_block`` and steps
``Reg.update_block`` over their dense pieces (a run's path through
``RegRun.walk``). The ``decode`` table times ``decode_block`` alone per
record at 1, 16 and ``Reg.block_steps`` records per call: the decoder
has no loop over records, so its fixed cost is per call, and the walk
decodes a window of records at once.

Writes ``results/reg_kernel.{txt,json,manifest.json,spans.jsonl}``;
wall times live in the report and spans (machine-dependent), while the
registry records the deterministic timestep and state counts. Exits
non-zero when the two implementations disagree by 1e-9 or more on any
timestep, so ``make bench-streams`` gates on exactness; wall times
never gate.
"""

from __future__ import annotations

import math
import random
import sys
import time

from repro.lahar import Reg
from repro.obs import MetricsRegistry
from repro.probability import CPT, SparseDistribution, decode_block
from repro.query import parse_query
from repro.streams import ENTERED_ROOM_QUERY, MarkovianStream
from repro.streams.synthetic import synthetic_space

from tests.reference_reg import ReferenceReg

from .harness import finish_run, print_table, save_report, start_run
from .workloads import FULL_SCALE

#: A wide state space (40 background cells + door + room) with dense
#: CPT rows, so every timestep's support covers the whole space — the
#: regime where the matrix kernel matters most. (The 10-state
#: synthetic snippet streams have narrow supports; wide supports arise
#: from long smoothing windows and noisy deployments.)
NUM_CELLS = 40
LENGTH = 2000 if FULL_SCALE else 600
REPEATS = 5

#: The headline query: a three-hop patrol with negated Kleene loops
#: between the hops. Each negated loop keeps extra DFA sets alive, so
#: the reference's per-set dict passes multiply while the kernel's
#: matmul cost stays flat.
PATROL_QUERY = (
    "location=C0 -> (!location=C5)* location=C1 -> "
    "(!location=C6)* location=C2 -> location=Room"
)


def _stream():
    space = synthetic_space(NUM_CELLS)
    rng = random.Random(13)
    n = len(space)

    def dense_row():
        weights = [rng.random() for _ in range(n)]
        total = sum(weights)
        return SparseDistribution(
            {s: w / total for s, w in enumerate(weights)}
        )

    marginals = [SparseDistribution.uniform(range(n))]
    cpts = []
    for _ in range(LENGTH - 1):
        cpt = CPT({s: dense_row() for s in marginals[-1].support()})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream("wide", space, marginals, cpts, validate=False)


def _run(reg, stream):
    probs = [reg.initialize(stream.marginal(0))]
    for t in range(1, len(stream)):
        probs.append(reg.update(stream.cpt_into(t)))
    return probs


def _run_records(reg, stream, records):
    probs = [reg.initialize(stream.marginal(0))]
    for data in records:
        probs.append(reg.update(CPT.from_bytes(data)))
    return probs


def _run_blocks(reg, stream, records):
    probs = [reg.initialize(stream.marginal(0))]
    for lo in range(0, len(records), reg.block_steps):
        block = decode_block(records[lo:lo + reg.block_steps])
        probs.extend(reg.update_block(reg.pieces(block)).tolist())
    return probs


def _decode_rows(records, block_steps):
    """``decode_block``'s best time per record over ``REPEATS`` passes
    through ``records``, at 1, 16 and ``block_steps`` records a call."""
    rows = []
    for per_call in (1, 16, block_steps):
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for lo in range(0, len(records), per_call):
                decode_block(records[lo:lo + per_call])
            best = min(best, time.perf_counter() - t0)
        rows.append({
            "records_per_call": per_call,
            "calls": math.ceil(len(records) / per_call),
            "us_per_record": round(best * 1e6 / len(records), 2),
        })
    return rows


def _time(make_reg, run):
    best = float("inf")
    probs = None
    for _ in range(REPEATS):
        reg = make_reg()
        t0 = time.perf_counter()
        probs = run(reg)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0, probs


def generate():
    registry = MetricsRegistry()
    manifest, tracer = start_run(
        "reg_kernel",
        config={"num_cells": NUM_CELLS, "length": LENGTH},
    )
    stream = _stream()
    space = stream.space
    records = [cpt.to_bytes() for cpt in stream.cpts]
    runs = (
        ("reference", ReferenceReg, lambda reg: _run(reg, stream)),
        ("vectorized", Reg, lambda reg: _run(reg, stream)),
        ("records-step", Reg,
         lambda reg: _run_records(reg, stream, records)),
        ("records-block", Reg,
         lambda reg: _run_blocks(reg, stream, records)),
    )
    rows = []
    max_diff = 0.0
    for name, text in (("entered-room", ENTERED_ROOM_QUERY),
                       ("patrol", PATROL_QUERY)):
        query = parse_query(text)
        ref_ms = ref_probs = None
        for impl, make, run in runs:
            with tracer.span(f"{impl}/{name}"):
                ms, probs = _time(lambda: make(query, space), run)
            if ref_probs is None:
                ref_ms, ref_probs = ms, probs
            diff = max(abs(a - b) for a, b in zip(ref_probs, probs))
            max_diff = max(max_diff, diff)
            rows.append({
                "query": name, "impl": impl, "wall_ms": round(ms, 2),
                "us_per_step": round(ms * 1000.0 / len(stream), 2),
                "speedup": round(ref_ms / ms, 2) if ms else float("inf"),
            })
    with tracer.span("decode"):
        decode = _decode_rows(records, Reg(query, space).block_steps)
    registry.counter("reg.timesteps").inc(len(stream))
    registry.counter("reg.states").inc(len(space))
    text = print_table(
        f"Reg kernel: {len(stream)} timesteps x {len(space)} states "
        f"(max |diff| {max_diff:.2e})",
        rows, columns=["query", "impl", "wall_ms", "us_per_step", "speedup"],
    ) + "\n" + print_table(
        f"decode_block: {len(records)} records of {len(space)} states",
        decode, columns=["records_per_call", "calls", "us_per_record"],
    )
    save_report("reg_kernel", text,
                {"rows": rows, "decode": decode, "max_abs_diff": max_diff})
    finish_run(manifest, tracer, registry,
               extra={"rows": rows, "decode": decode,
                      "max_abs_diff": max_diff})
    if max_diff >= 1e-9:
        sys.exit(f"Reg kernel diverged from the reference by {max_diff:.2e}")
    return rows


if __name__ == "__main__":
    generate()
