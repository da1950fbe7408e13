"""Storage-engine microbenchmarks: the costs every access method pays.

Four experiments over a bulk-loaded tree of ``N`` entries, and one on
the value-index layer above it:

1. Point lookups — logical page reads per ``get`` must equal the tree
   height (one page per level), cold or warm.
2. Full range scan — a cold scan reads exactly one physical page per
   leaf (the leaf chain, no descent); a warm repeat is served entirely
   from the buffer pool (0 physical reads).
3. Building — a bottom-up bulk load, then a whole-tree rewrite of the
   same entries (the catalog's commit): build time, leaf count, fill
   factor, and file size (a rewrite writes a new file of the same size).
4. Buffer-pool hit rate vs pool size under a skewed point-lookup
   workload — the knob Figure 10's cold/warm split turns on.
5. Value-index build — BT_C + BT_P over one attribute of a 12,000-step,
   density-0.05 synthetic stream (aggregate, encode, sort, bulk load):
   µs per timestep, min of ``VALUE_INDEX_REPEATS`` builds.
6. Whole archive — ``Caldera.archive`` of the same stream with BT_C,
   BT_P and an MC index (alpha = 2), once in each of the ``separated``
   and ``packed`` layouts: µs per archived timestep, min of
   ``VALUE_INDEX_REPEATS``, and the logical page reads it made.

Rows 5 and 6 are informational: wall times never gate.

Besides the text/JSON report, the run emits a
``results/storage_micro.manifest.json`` run manifest (span tree with
per-span wall time + I/O deltas, histogram summaries) and streams span
events to ``results/storage_micro.spans.jsonl`` — render or diff with
``python -m repro.obs.report``.

Run directly (``make bench-storage``) or via the figure runner.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time

from repro.core import Caldera
from repro.indexes import build_value_indexes
from repro.obs import MetricsRegistry
from repro.storage import StorageEnvironment, encode_key
from repro.streams import synthetic_stream

from .harness import finish_run, print_table, save_report, start_run

N_ENTRIES = 120_000
PAGE_SIZE = 4096
N_LOOKUPS = 2_000
N_HISTOGRAM_PROBES = 500
POOL_SIZES = [32, 128, 512, 2048]
VALUE_INDEX_SNIPPETS = 400  # 30 steps each: 12,000 steps
VALUE_INDEX_DENSITY = 0.05
VALUE_INDEX_REPEATS = 5


def _items(n):
    return [
        (encode_key((i // 997, i)), f"marginal-{i:08d}".encode())
        for i in range(n)
    ]


def _fill_factor(tree, items):
    """Mean bytes of payload per leaf relative to the page size."""
    payload = sum(len(k) + len(v) for k, v in items)
    return payload / (tree.num_leaves * tree.pager.page_size)


def _bench_lookups_and_scans(workdir, items, tracer, registry):
    env = StorageEnvironment(f"{workdir}/lookup", page_size=PAGE_SIZE,
                             pool_pages=4 * len(items) // 100)
    tree = env.open_tree("t")
    with tracer.span("bulk_load", io=env.stats, entries=len(items)):
        tree.bulk_load(items)
    rng = random.Random(42)
    probes = [items[rng.randrange(len(items))] for _ in range(N_LOOKUPS)]

    rows = []
    for label, cold in (("cold", True), ("warm", False)):
        if cold:
            env.drop_caches()
        snap = env.stats.snapshot()
        with tracer.span(f"point_lookup_{label}", io=env.stats,
                         probes=len(probes)):
            start = time.perf_counter()
            for key, value in probes:
                assert tree.get(key) == value
            wall = time.perf_counter() - start
        delta = env.stats.delta(snap)
        rows.append({
            "op": f"point_lookup_{label}",
            "wall_ms": wall * 1000.0,
            "logical_reads_per_op": delta.logical_reads / len(probes),
            "physical_reads_per_op": delta.physical_reads / len(probes),
            "tree_height": tree.height,
        })

    # Per-op page-read distributions (outside the timed loops so the
    # per-probe snapshots never pollute the wall-clock rows).
    h_logical = registry.histogram("lookup.logical_reads_per_op")
    h_physical = registry.histogram("lookup.physical_reads_per_op")
    env.drop_caches()
    for key, _ in probes[:N_HISTOGRAM_PROBES]:
        snap = env.stats.snapshot()
        tree.get(key)
        delta = env.stats.delta(snap)
        h_logical.observe(delta.logical_reads)
        h_physical.observe(delta.physical_reads)

    scan = {"op": "full_scan", "tree_height": tree.height}
    env.drop_caches()
    snap = env.stats.snapshot()
    with tracer.span("full_scan_cold", io=env.stats):
        start = time.perf_counter()
        count = sum(1 for _ in tree.items())
        scan["wall_ms_cold"] = (time.perf_counter() - start) * 1000.0
    cold_io = env.stats.delta(snap)
    assert count == len(items)
    snap = env.stats.snapshot()
    with tracer.span("full_scan_warm", io=env.stats):
        start = time.perf_counter()
        sum(1 for _ in tree.items())
        scan["wall_ms_warm"] = (time.perf_counter() - start) * 1000.0
    warm_io = env.stats.delta(snap)
    scan.update({
        "leaf_pages": tree.num_leaves,
        "scan_cold_physical_reads": cold_io.physical_reads,
        "scan_warm_physical_reads": warm_io.physical_reads,
        "scan_logical_reads": cold_io.logical_reads,
    })
    env.close()
    return rows, scan


def _bench_build(workdir, items, tracer):
    rows = []
    env = StorageEnvironment(f"{workdir}/build", page_size=PAGE_SIZE,
                             pool_pages=1024)
    tree = env.open_tree("t")
    for strategy, build in (("bulk_load", tree.bulk_load),
                            ("rewrite", tree.rewrite)):
        with tracer.span(f"build_{strategy}", io=env.stats):
            start = time.perf_counter()
            build(items)
        rows.append({
            "strategy": strategy,
            "build_s": time.perf_counter() - start,
            "leaf_pages": tree.num_leaves,
            "height": tree.height,
            "fill_factor": _fill_factor(tree, items),
            "file_mb": env.file_size(tree.name) / 2**20,
        })
    env.close()
    return rows


def _bench_pool_sizes(workdir, items, tracer):
    rows = []
    rng = random.Random(1234)
    # Zipf-ish skew: most probes hit a small hot set.
    hot = items[: len(items) // 20]
    probes = [
        pool[rng.randrange(len(pool))]
        for pool in (hot if rng.random() < 0.8 else items
                     for _ in range(N_LOOKUPS))
    ]
    for pool_pages in POOL_SIZES:
        env = StorageEnvironment(f"{workdir}/pool_{pool_pages}",
                                 page_size=PAGE_SIZE, pool_pages=pool_pages)
        tree = env.open_tree("t")
        tree.bulk_load(items)
        env.drop_caches()
        snap = env.stats.snapshot()
        with tracer.span("skewed_lookups", io=env.stats,
                         pool_pages=pool_pages):
            for key, _ in probes:
                tree.get(key)
        delta = env.stats.delta(snap)
        rows.append({
            "pool_pages": pool_pages,
            "pool_mb": pool_pages * PAGE_SIZE / 2**20,
            "hit_rate": delta.hit_rate,
            "physical_reads": delta.physical_reads,
            "logical_reads": delta.logical_reads,
        })
        env.close()
    return rows


def _bench_value_index_build(workdir, tracer):
    stream = synthetic_stream("s", num_snippets=VALUE_INDEX_SNIPPETS,
                              density=VALUE_INDEX_DENSITY, seed=1)
    best = float("inf")
    for rep in range(VALUE_INDEX_REPEATS):
        env = StorageEnvironment(f"{workdir}/value_index_{rep}",
                                 page_size=PAGE_SIZE)
        with tracer.span("value_index_build", io=env.stats, rep=rep):
            start = time.perf_counter()
            built = build_value_indexes(env, "s", stream.space, "location",
                                        stream.marginal_block,
                                        ("btc", "btp"))
            best = min(best, time.perf_counter() - start)
        entries = len(built["btc"].tree)
        env.close()
    return {
        "indexes": "btc+btp",
        "steps": len(stream),
        "entries": entries,
        "min_of": VALUE_INDEX_REPEATS,
        "us_per_step": best / len(stream) * 1e6,
    }


def _bench_archive(workdir, tracer):
    stream = synthetic_stream("s", num_snippets=VALUE_INDEX_SNIPPETS,
                              density=VALUE_INDEX_DENSITY, seed=1)
    layouts = ("separated", "packed")
    best = float("inf")
    for rep in range(VALUE_INDEX_REPEATS):
        with Caldera(f"{workdir}/archive_{rep}", page_size=PAGE_SIZE) as db:
            snap = db.stats.snapshot()
            with tracer.span("archive", io=db.stats, rep=rep):
                start = time.perf_counter()
                for layout in layouts:
                    stream.name = f"s_{layout}"
                    db.archive(stream, layout=layout, mc_alpha=2)
                best = min(best, time.perf_counter() - start)
            reads = db.stats.delta(snap).logical_reads
    steps = len(stream) * len(layouts)
    return {
        "layouts": "+".join(layouts),
        "indexes": "btc+btp+mc",
        "steps": steps,
        "min_of": VALUE_INDEX_REPEATS,
        "us_per_step": best / steps * 1e6,
        "logical_reads": reads,
    }


def generate():
    registry = MetricsRegistry()
    manifest, tracer = start_run(
        "storage_micro",
        config={
            "n_entries": N_ENTRIES,
            "page_size": PAGE_SIZE,
            "n_lookups": N_LOOKUPS,
            "pool_sizes": POOL_SIZES,
            "value_index_snippets": VALUE_INDEX_SNIPPETS,
            "value_index_density": VALUE_INDEX_DENSITY,
        },
        registry=registry,
    )
    workdir = tempfile.mkdtemp(prefix="bench_storage_")
    try:
        items = _items(N_ENTRIES)
        with tracer.span("lookups_and_scans"):
            lookup_rows, scan_row = _bench_lookups_and_scans(
                workdir, items, tracer, registry)
        with tracer.span("build_strategies"):
            build_rows = _bench_build(workdir, items, tracer)
        with tracer.span("pool_sizes"):
            pool_rows = _bench_pool_sizes(workdir, items, tracer)
        with tracer.span("value_index"):
            value_index_row = _bench_value_index_build(workdir, tracer)
        with tracer.span("archive"):
            archive_row = _bench_archive(workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    text = print_table(
        f"Point lookups ({N_ENTRIES} entries, {N_LOOKUPS} probes)",
        lookup_rows,
        columns=["op", "wall_ms", "logical_reads_per_op",
                 "physical_reads_per_op", "tree_height"],
    )
    text += print_table(
        "Full scan: cold reads one page per leaf, warm reads none",
        [scan_row],
        columns=["op", "leaf_pages", "scan_cold_physical_reads",
                 "scan_warm_physical_reads", "wall_ms_cold", "wall_ms_warm"],
    )
    text += print_table(
        "Building: bulk load, then a rewrite of the same entries",
        build_rows,
        columns=["strategy", "build_s", "leaf_pages", "height",
                 "fill_factor", "file_mb"],
    )
    text += print_table(
        "Buffer-pool hit rate vs pool size (skewed point lookups)",
        pool_rows,
        columns=["pool_pages", "pool_mb", "hit_rate", "physical_reads",
                 "logical_reads"],
    )
    text += print_table(
        "Value-index build: BT_C + BT_P, one attribute (min of "
        f"{VALUE_INDEX_REPEATS}; informational)",
        [value_index_row],
        columns=["indexes", "steps", "entries", "min_of", "us_per_step"],
    )
    text += print_table(
        "Whole archive: Caldera.archive in both layouts (min of "
        f"{VALUE_INDEX_REPEATS}; informational)",
        [archive_row],
        columns=["layouts", "indexes", "steps", "min_of", "us_per_step",
                 "logical_reads"],
    )
    data = {
        "n_entries": N_ENTRIES,
        "page_size": PAGE_SIZE,
        "point_lookups": lookup_rows,
        "full_scan": scan_row,
        "build": build_rows,
        "pool_sizes": pool_rows,
        "value_index_build": value_index_row,
        "archive": archive_row,
    }
    save_report("storage_micro", text, data)
    path = finish_run(manifest, tracer, registry=registry)
    print(f"run manifest: {path}")
    return data


if __name__ == "__main__":
    generate()
