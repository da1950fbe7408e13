"""Regenerate every figure and table of the paper.

Usage::

    python -m benchmarks.run_all            # scaled-down streams
    REPRO_BENCH_FULL=1 python -m benchmarks.run_all   # paper scale

Writes one text + JSON report per figure under ``benchmarks/results/``;
EXPERIMENTS.md summarizes them against the paper's claims.

Figure 10 (the multi-link hallway-chain query table) is not
reproduced: its queries need the paper's building floorplan, which the
synthetic world does not have. The run emits a
``results/run_all.manifest.json`` manifest — one span per figure — so
two regeneration runs are diffable with ``python -m repro.obs.report``.
"""

from __future__ import annotations

import importlib
import sys
import time

from repro.obs import MetricsRegistry

from .harness import finish_run, start_run

# (figure name, module under benchmarks.) — imported on demand.
FIGURES = [
    ("storage_micro", "bench_storage_micro"),
    ("fig4", "bench_fig4_signal"),
    ("fig8a", "bench_fig8a_layouts"),
    ("fig8b", "bench_fig8b_real_fixed"),
    ("fig8c", "bench_fig8c_matchrate"),
    ("fig9a", "bench_fig9a_variable"),
    ("fig9b", "bench_fig9b_real_variable"),
    ("fig9c", "bench_fig9c_accuracy"),
    ("fig11a", "bench_fig11a_mc_lookup"),
    ("fig11b", "bench_fig11b_mc_storage"),
    ("ablation_merge", "bench_ablation_merge"),
    ("ablation_topk_bound", "bench_ablation_topk_bound"),
    ("ablation_mc_alpha", "bench_ablation_mc_alpha"),
]


def main(only=None) -> int:
    start = time.time()
    registry = MetricsRegistry()
    manifest, tracer = start_run("run_all", registry=registry)
    done = []
    for name, module_name in FIGURES:
        if only and name not in only:
            continue
        module = importlib.import_module(f".{module_name}", __package__)
        print(f"\n##### {name} " + "#" * 40)
        t0 = time.time()
        with tracer.span("figure", figure=name):
            module.generate()
        print(f"[{name}] done in {time.time() - t0:.1f}s")
        done.append(name)
    path = finish_run(
        manifest, tracer, registry=registry,
        extra={"figures_done": done},
    )
    print(f"\n{len(done)} figure(s) regenerated in "
          f"{time.time() - start:.1f}s; reports in benchmarks/results/")
    print(f"run manifest: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(set(sys.argv[1:]) or None))
