"""The crash-point sweep as a reportable benchmark (``make crash-sweep``).

Runs the same deterministic single-fault methodology as
``tests/storage/test_crash_sweep.py`` at a larger scale: a mixed
workload (bulk loads, then whole-tree rewrites carrying upserts,
deletes and overflow values, over two trees, and a BT_C-shaped load of
fixed-width rows into a third) is probed once to learn
its failpoint space, then every
``(site, hit, action)`` schedule runs to its fault, loses its unsynced
bytes, and must recover to a committed state with a clean fsck.

Emits ``results/crash_sweep.{txt,json}`` plus a run manifest +
span stream (``results/crash_sweep.manifest.json`` /
``.spans.jsonl``) whose counters record schedules run, schedules
recovered clean, failures, and fsck pages checked. Bounded: the whole
sweep is a few hundred small in-process runs, a few seconds.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from repro.errors import StorageError
from repro.indexes import btc
from repro.obs import MetricsRegistry
from repro.storage import FixedRows, StorageEnvironment
from repro.storage.faults import (
    FaultInjector,
    SimulatedCrash,
    enumerate_schedules,
)

from .harness import finish_run, print_table, save_report, start_run

PAGE_SIZE = 256
POOL_PAGES = 12
SWEEP_SEEDS = (0, 1, 2)
#: Each load passes every site but ``pager.write`` once; sampling 40
#: page writes per run keeps the sweep above its former 480 schedules.
MAX_HITS_PER_SITE = 40
N_KEYS = 160
TREES = ("t", "u", "c")


def btc_rows(codes, steps):
    """BT_C entries, in key order: ``(code, time)`` keys, each with an
    8-byte probability, as the fixed-width rows the index loads."""
    codes, times = np.divmod(np.arange(codes * steps), steps)
    return FixedRows(btc.encode(codes, times, 1.0 / (1 + times)),
                     btc.KEY.size)


def workload(env, mark):
    state = {name: {} for name in TREES}
    t = env.open_tree("t")
    u = env.open_tree("u")
    c = env.open_tree("c")

    def commit():
        mark({name: dict(entries) for name, entries in state.items()})

    commit()

    items = [(f"k{i:05d}".encode(), bytes([i % 251]) * (10 + i % 90))
             for i in range(N_KEYS)]
    t.bulk_load(items)
    state["t"].update(items)
    commit()

    rows = btc_rows(4, 30)
    c.bulk_load(rows)
    state["c"].update((row[:rows.key_width].tobytes(),
                       row[rows.key_width:].tobytes()) for row in rows.rows)
    commit()

    for i in range(0, N_KEYS, 4):
        state["t"][f"k{i:05d}".encode()] = b"rev2" * 8
    for i in range(2, N_KEYS, 16):
        del state["t"][f"k{i:05d}".encode()]
    for i in range(6):
        state["u"][f"blob{i}".encode()] = \
            bytes([97 + i]) * (PAGE_SIZE * 2 + 31 * i)
    t.rewrite(sorted(state["t"].items()))
    u.bulk_load(sorted(state["u"].items()))
    commit()

    del state["u"][b"blob3"]
    for i in range(N_KEYS, N_KEYS + 30):
        state["t"][f"k{i:05d}".encode()] = b"late"
    u.rewrite(sorted(state["u"].items()))
    t.rewrite(sorted(state["t"].items()))
    commit()


def run_once(dirname, injector):
    marks = []
    env = StorageEnvironment(dirname, page_size=PAGE_SIZE,
                             pool_pages=POOL_PAGES, faults=injector)
    try:
        workload(env, marks.append)
        env.close()
        return marks, True
    except OSError:
        env.close()  # the close a ``with`` block runs on the way out
        return marks, False
    except SimulatedCrash:  # the process died: nothing runs after it
        return marks, False


def recover_and_verify(dirname, pages_checked):
    """Reopen cleanly; returns (state, fsck_clean), where a tree whose
    first load never committed has no file and reads as empty. Adds the
    pages fsck read to the ``pages_checked`` counter."""
    env = StorageEnvironment(dirname, page_size=PAGE_SIZE,
                             pool_pages=POOL_PAGES)
    try:
        state = {}
        for name in TREES:
            try:
                state[name] = dict(env.open_tree(name, create=False).items())
            except StorageError:
                state[name] = {}
        report = env.fsck()
        pages_checked.inc(report.pages_checked)
        return state, report.clean
    finally:
        env.close()


def tree_acceptable(marks, completed, finished, name, value):
    """Each tree commits by renaming its own file, so a mark that changes
    two trees is not atomic across them: a fault between the two commits
    may leave one tree a mark ahead of the other. Zero committed-key loss is
    therefore judged per tree — its recovered contents must equal that
    tree's slice of a mark no earlier than the last completed one."""
    if finished:
        window = marks[-1:]
    else:
        window = marks[max(0, completed - 1):completed + 1]
    return any(value == m[name] for m in window)


def generate():
    registry = MetricsRegistry()
    manifest, tracer = start_run(
        "crash_sweep",
        config={
            "page_size": PAGE_SIZE,
            "pool_pages": POOL_PAGES,
            "seeds": list(SWEEP_SEEDS),
            "max_hits_per_site": MAX_HITS_PER_SITE,
            "n_keys": N_KEYS,
        },
        registry=registry,
    )
    c_runs = registry.counter("sweep.schedules_run")
    c_recovered = registry.counter("sweep.recovered_clean")
    c_failures = registry.counter("sweep.failures")
    c_pages_checked = registry.counter("sweep.fsck_pages_checked")

    workdir = tempfile.mkdtemp(prefix="crash_sweep_")
    start = time.perf_counter()
    failures = []
    by_action = {}
    by_site = {}
    try:
        probe = FaultInjector()
        with tracer.span("baseline"):
            marks, finished = run_once(f"{workdir}/baseline", probe)
            assert finished and len(marks) == 5
            state, clean = recover_and_verify(f"{workdir}/baseline",
                                              c_pages_checked)
            assert clean and state == marks[-1]

        schedules = enumerate_schedules(probe.hits,
                                        max_hits_per_site=MAX_HITS_PER_SITE)
        with tracer.span("sweep", schedules=len(schedules),
                         seeds=len(SWEEP_SEEDS)):
            for seed in SWEEP_SEEDS:
                for n, rule in enumerate(schedules):
                    dirname = f"{workdir}/s{seed}_{n}"
                    injector = FaultInjector([rule], seed=seed)
                    run_marks, finished = run_once(dirname, injector)
                    injector.crash()
                    c_runs.inc()
                    by_action[rule.action] = by_action.get(rule.action,
                                                           0) + 1
                    site = rule.site
                    by_site[site] = by_site.get(site, 0) + 1
                    state, clean = recover_and_verify(dirname,
                                                      c_pages_checked)
                    ok = True
                    if not clean:
                        ok = False
                        failures.append((seed, rule.label(), "fsck dirty"))
                    completed = len(run_marks)
                    for name in TREES:
                        if not tree_acceptable(marks, completed, finished,
                                               name, state[name]):
                            ok = False
                            failures.append(
                                (seed, rule.label(),
                                 f"tree {name!r} matches no committed "
                                 f"mark"))
                    if ok:
                        c_recovered.inc()
                    shutil.rmtree(dirname, ignore_errors=True)
        c_failures.inc(len(failures))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - start

    total = len(schedules) * len(SWEEP_SEEDS)
    summary = [{
        "schedules": total,
        "seeds": len(SWEEP_SEEDS),
        "failures": len(failures),
        "wall_s": wall,
    }]
    site_rows = [
        {"site": site, "schedules": count,
         "of_which_failed": sum(1 for _, label, _r in failures
                                if label.startswith(site + "#"))}
        for site, count in sorted(by_site.items())
    ]
    text = print_table("Crash-point sweep", summary,
                       columns=["schedules", "seeds", "failures", "wall_s"])
    text += print_table("Schedules by failpoint site", site_rows,
                        columns=["site", "schedules", "of_which_failed"])
    if failures:
        text += "FAILURES:\n" + "\n".join(
            f"  seed={s} {label}: {reason}"
            for s, label, reason in failures[:20]) + "\n"
        print(text.splitlines()[-1])
    data = {
        "schedules": total,
        "failures": [
            {"seed": s, "rule": label, "reason": reason}
            for s, label, reason in failures
        ],
        "by_action": by_action,
        "by_site": by_site,
        "wall_s": wall,
    }
    save_report("crash_sweep", text, data)
    path = finish_run(manifest, tracer, registry=registry,
                      extra={"failures": len(failures)})
    print(f"run manifest: {path}")
    if failures:
        raise SystemExit(1)
    return data


if __name__ == "__main__":
    generate()
