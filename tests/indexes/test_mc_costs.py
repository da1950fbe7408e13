"""Exact cost accounting for the MC index (satellite of Fig 8(b) /
Fig 11): piece counts per gap are pinned exactly, the log bound
``pieces <= 2*ceil(log_alpha g) + c`` holds with a per-alpha constant
pinned below, logical page reads are an exact function of tree heights,
and the build cost is pinned as a bulk-load page-write count (same
style as ``tests/streams/test_archive_costs.py``)."""

import math

import pytest

from repro.indexes.base import mc_tree_name
from repro.indexes.builder import build_mc
from repro.indexes.mc import MCLookupStats
from repro.storage import StorageEnvironment
from repro.storage.pager import PAGE_HEADER_SIZE
from repro.streams import Layout, open_reader, write_stream

from test_mc import make_stream

LENGTH = 130
PAGE = 8192

#: Deterministic gap fixtures: (start, end) pairs over the length-130
#: stream, mixing aligned, unaligned, single-step, and full-stream gaps.
GAPS = [(0, 1), (0, 129), (3, 100), (17, 23), (1, 128),
        (64, 127), (5, 6), (0, 64), (33, 97)]

#: Exact piece counts (lookups + base CPT reads) per gap, pinned per
#: alpha. Any change to the level scheme or greedy descent shows up
#: here first.
PIECES = {
    2: [1, 2, 7, 4, 7, 6, 1, 1, 7],
    4: [1, 3, 10, 6, 10, 9, 1, 1, 10],
    8: [1, 3, 20, 6, 15, 14, 1, 1, 15],
}

#: The pinned additive constant making pieces <= 2*ceil(log_alpha g)+c
#: tight over the fixtures (slack of the worst fixture; c >= 1 because
#: a single-step gap costs one piece against a bound of zero).
LOG_BOUND_C = {2: 1, 4: 4, 8: 14}

#: Build cost: total pages in the bulk-loaded index file and the exact
#: physical page writes of the build (each page of the new file, meta
#: frame included, written once, never rewritten per record).
BUILD_PAGES = {2: 6, 4: 3, 8: 3}
BUILD_WRITES = {2: 6, 4: 3, 8: 3}


@pytest.fixture(scope="module", params=[2, 4, 8])
def fixture(request, tmp_path_factory):
    alpha = request.param
    path = tmp_path_factory.mktemp(f"mc_costs_a{alpha}")
    with StorageEnvironment(str(path), page_size=PAGE) as env:
        stream = make_stream(3, length=LENGTH)
        write_stream(env, stream, layout=Layout.SEPARATED)
        reader = open_reader(env, "s", stream.space)
        env.stats.reset()
        index = build_mc(env, "s", reader, alpha=alpha)
        build_writes = env.stats.physical_writes
        yield env, reader, index, alpha, build_writes


def test_build_write_cost_is_pinned(fixture):
    env, _, index, alpha, build_writes = fixture
    pages = env.file_size(mc_tree_name("s")) // PAGE
    assert pages == BUILD_PAGES[alpha]
    assert build_writes == BUILD_WRITES[alpha]
    # Bulk load never rewrites: one write per frame of the file, not a
    # function of record count.
    frame = PAGE + PAGE_HEADER_SIZE
    assert build_writes == env.file_size(mc_tree_name("s")) // frame


def test_piece_counts_are_pinned(fixture):
    _, reader, index, alpha, _ = fixture
    got = []
    for start, end in GAPS:
        stats = MCLookupStats()
        index.compute_cpt(start, end, reader, stats=stats)
        got.append(stats.pieces)
    assert got == PIECES[alpha]


def test_pieces_obey_pinned_log_bound(fixture):
    _, reader, index, alpha, _ = fixture
    c = LOG_BOUND_C[alpha]
    slacks = []
    for start, end in GAPS:
        stats = MCLookupStats()
        index.compute_cpt(start, end, reader, stats=stats)
        g = end - start
        bound = 2 * math.ceil(math.log(g, alpha)) if g > 1 else 0
        assert stats.pieces <= bound + c, (start, end)
        slacks.append(stats.pieces - bound)
    # The constant is tight: some fixture attains it exactly.
    assert max(slacks) == c


def test_pieces_obey_theoretical_bound_on_full_sweep(fixture):
    """Every gap starting at an arbitrary offset satisfies the greedy
    decomposition's worst case: <= alpha-1 pieces per level per side."""
    _, reader, index, alpha, _ = fixture
    for end in range(4, LENGTH - 1, 7):
        stats = MCLookupStats()
        index.compute_cpt(3, end, reader, stats=stats)
        g = end - 3
        bound = 2 * (alpha - 1) * max(1, math.ceil(math.log(g, alpha)))
        assert stats.pieces <= bound, (3, end, stats.pieces, bound)


def test_logical_reads_are_exact_height_arithmetic(fixture):
    """Gap traversal costs exactly ``lookups * mc_height`` page reads
    in the index plus ``base_cpts_read`` point CPT reads from the
    archive — nothing else touches a page."""
    env, reader, index, alpha, _ = fixture
    mc_height = env.open_tree(mc_tree_name("s")).height
    # Self-calibrate the archive's point CPT cost (one tree descent).
    env.stats.reset()
    reader.cpt_into(5)
    cpt_cost = env.stats.logical_reads
    assert cpt_cost >= 1
    for start, end in GAPS:
        stats = MCLookupStats()
        env.stats.reset()
        index.compute_cpt(start, end, reader, stats=stats)
        want = stats.lookups * mc_height + stats.base_cpts_read * cpt_cost
        assert env.stats.logical_reads == want, (start, end)


def test_mc_traversal_beats_stepwise_reads_on_long_gaps(fixture):
    """The headline inequality: covering a long gap through the index
    costs strictly fewer logical reads than reading every base CPT."""
    env, reader, index, alpha, _ = fixture
    env.stats.reset()
    index.compute_cpt(0, LENGTH - 1, reader)
    mc_reads = env.stats.logical_reads
    env.stats.reset()
    for t in range(1, LENGTH):
        reader.cpt_into(t)
    scan_reads = env.stats.logical_reads
    assert mc_reads * 4 < scan_reads


def test_lookup_growth_is_logarithmic(fixture):
    """Doubling the gap adds O(1) pieces: across an exponential ladder
    of gaps the piece count grows by at most 2*(alpha-1) per rung."""
    _, reader, index, alpha, _ = fixture
    ladder = []
    g = 2
    while g <= LENGTH - 4:
        stats = MCLookupStats()
        index.compute_cpt(3, 3 + g, reader, stats=stats)
        ladder.append(stats.pieces)
        g *= 2
    for prev, nxt in zip(ladder, ladder[1:]):
        assert nxt - prev <= 2 * (alpha - 1)
    # And the whole ladder stays far below linear growth.
    assert ladder[-1] < (LENGTH - 4) / 4
