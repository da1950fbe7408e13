"""The headline crash test: a deterministic sweep of single-fault
schedules over a mixed workload. For every (failpoint, hit, action)
the workload runs until the fault, the "machine" loses its unsynced
bytes, and the reopened environment must hold exactly one of the
workload's committed states — at least the last one whose commit
returned — with a clean fsck. No subprocesses, no timing, no luck.
"""


import numpy as np

from repro.errors import StorageError
from repro.indexes import btc
from repro.storage import FixedRows, StorageEnvironment
from repro.storage.faults import (
    FaultInjector,
    SimulatedCrash,
    enumerate_schedules,
)

PAGE_SIZE = 256
POOL_PAGES = 8
SWEEP_SEEDS = (0, 1)
#: Every load hits each of its other sites once, so the page writes
#: carry the sweep: 24 of them per run keeps it above 200 schedules.
MAX_HITS_PER_SITE = 24


def workload(env, mark):
    """A small but structurally rich history: bulk load, a BT_C-shaped
    load of fixed-width rows into a second tree, then whole-tree
    rewrites of the first with upserts, deletes and overflow values.
    ``mark(state)`` is called right after each commit with the entries
    each tree must hold if that commit proves durable."""
    state = {"t": {}, "c": {}}
    tree = env.open_tree("t")

    def commit():
        mark({name: dict(entries) for name, entries in state.items()})

    commit()  # opened, not loaded: no file, reads as empty

    items = [(f"k{i:04d}".encode(), bytes([i % 251]) * (20 + i % 60))
             for i in range(90)]
    tree.bulk_load(items)
    state["t"].update(items)
    commit()

    codes, times = np.divmod(np.arange(40), 10)
    rows = btc.encode(codes, times, 1.0 / (1 + times))
    env.open_tree("c").bulk_load(FixedRows(rows, btc.KEY.size))
    state["c"].update((row[:btc.KEY.size].tobytes(),
                       row[btc.KEY.size:].tobytes()) for row in rows)
    commit()

    t = state["t"]
    for i in range(0, 90, 3):
        t[f"k{i:04d}".encode()] = b"updated" * 4
    for i in range(1, 90, 9):
        del t[f"k{i:04d}".encode()]
    tree.rewrite(sorted(t.items()))
    commit()

    # Overflow values (> page/4 spills into chained pages).
    for i in (0, 2, 3):
        t[f"big{i}".encode()] = bytes([65 + i]) * (PAGE_SIZE * 2 + i * 37)
    tree.rewrite(sorted(t.items()))
    commit()


def run_once(dirname, injector):
    """Run the workload under ``injector``; returns (marks, completed)
    where ``completed`` counts commits that returned successfully."""
    marks = []
    env = StorageEnvironment(dirname, page_size=PAGE_SIZE,
                             pool_pages=POOL_PAGES,
                             faults=injector)
    try:
        workload(env, lambda s: marks.append(s))
        env.close()
        return marks, len(marks), True
    except OSError:
        env.close()  # the close a ``with`` block runs on the way out
        return marks, len(marks), False
    except SimulatedCrash:  # the process died: nothing runs after it
        return marks, len(marks), False


def recovered_state(dirname):
    """Reopen cleanly and read back everything, fsck included. A tree
    whose first load never committed has no file and reads as empty."""
    env = StorageEnvironment(dirname, page_size=PAGE_SIZE,
                             pool_pages=POOL_PAGES)
    try:
        state = {}
        for name in ("t", "c"):
            try:
                state[name] = dict(env.open_tree(name, create=False).items())
            except StorageError:
                assert not env.exists(name)
                state[name] = {}
        report = env.fsck()
        assert report.clean, (dirname, report.all_errors()[:4])
        return state
    finally:
        env.close()


def baseline_marks_and_hits(tmp_path):
    probe = FaultInjector()  # unarmed: counts failpoint hits
    base_dir = str(tmp_path / "baseline")
    marks, completed, finished = run_once(base_dir, probe)
    assert finished and completed == len(marks) == 5
    # The no-fault run must itself verify.
    assert recovered_state(base_dir) == marks[-1]
    return marks, probe.hits


def test_seeded_crash_point_sweep(tmp_path):
    marks, site_hits = baseline_marks_and_hits(tmp_path)
    schedules = enumerate_schedules(site_hits,
                                    max_hits_per_site=MAX_HITS_PER_SITE)
    total = len(schedules) * len(SWEEP_SEEDS)
    assert total >= 200, (total, site_hits)

    failures = []
    for seed in SWEEP_SEEDS:
        for n, rule in enumerate(schedules):
            dirname = str(tmp_path / f"s{seed}_{n}")
            injector = FaultInjector([rule], seed=seed)
            run_marks, completed, finished = run_once(dirname, injector)
            if finished and not injector.fired:
                failures.append((seed, rule.label(), "never fired"))
                continue
            assert run_marks == marks[:completed]  # deterministic prefix
            injector.crash()  # drop every unsynced byte everywhere
            state = recovered_state(dirname)
            # Zero committed-key loss: the recovered state must be the
            # last mark whose commit returned, or — if the fault struck
            # after that commit became durable but before it returned —
            # the very next one. Never anything earlier, later, or in
            # between.
            if finished:
                acceptable = marks[-1:]
            else:
                acceptable = marks[max(0, completed - 1):completed + 1]
            if state not in acceptable:
                failures.append((seed, rule.label(),
                                 f"recovered state matches no mark near "
                                 f"{completed}"))
    assert not failures, failures[:10]


def test_sweep_is_deterministic(tmp_path):
    """Same rule, same seed, different directory: byte-identical fault
    behavior (fired labels and recovered contents)."""
    _, site_hits = baseline_marks_and_hits(tmp_path)
    rule = next(r for r in enumerate_schedules(site_hits)
                if r.site == "pager.write" and r.action == "torn")

    outcomes = []
    for run in range(2):
        dirname = str(tmp_path / f"det{run}")
        injector = FaultInjector([rule], seed=42)
        run_once(dirname, injector)
        injector.crash()
        outcomes.append((tuple(injector.fired),
                         recovered_state(dirname)))
    assert outcomes[0] == outcomes[1]
