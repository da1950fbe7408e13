"""Page-read accounting over the archive layouts (satellite of the
layout experiment, Fig 8): the logical-read counts of scans and point
accesses are exact functions of tree height and pack factor, so the
tests pin them exactly rather than approximately."""

import pytest

from repro.storage import StorageEnvironment
from repro.streams import Layout, write_stream
from repro.streams.archive import (cpt_tree_name, data_tree_name,
                                   marg_tree_name)

from test_archive import random_stream

LENGTH = 64
PACK = 8


@pytest.fixture()
def env(tmp_path):
    # Page size must keep packed frames inline (<= 1/4 page): an
    # overflow chain would add per-frame page reads and break the exact
    # height arithmetic below.
    with StorageEnvironment(str(tmp_path), page_size=8192) as env:
        stream = random_stream(5, LENGTH, 4)
        for layout in (Layout.SEPARATED, Layout.CELL, Layout.PACKED):
            stream.name = f"s_{layout.value}"
            write_stream(env, stream, layout=layout, pack=PACK)
        yield env


def _reader(env, layout):
    from repro.streams import open_reader

    return open_reader(env, f"s_{layout.value}",
                       random_stream(5, LENGTH, 4).space)


def _cold_scan_reads(env, reader):
    env.pool.evict_all()
    env.stats.reset()
    reader.materialize()
    return env.stats.logical_reads


def test_packed_scan_costs_one_kth_of_cell(env):
    """A packed(K) sequential scan descends once per K-step frame, so
    its logical reads are exactly ceil(L/K)/L of the cell layout's
    (when both trees have equal height)."""
    cell_reader = _reader(env, Layout.CELL)
    packed_reader = _reader(env, Layout.PACKED)
    cell_height = env.open_tree(data_tree_name("s_cell")).height
    packed_height = env.open_tree(data_tree_name("s_packed")).height

    cell_reads = _cold_scan_reads(env, cell_reader)
    packed_reads = _cold_scan_reads(env, packed_reader)

    assert cell_reads == LENGTH * cell_height
    assert packed_reads == -(-LENGTH // PACK) * packed_height
    # The headline ratio: ~1/K fewer logical reads, modulo one level of
    # height difference between the two trees.
    assert packed_reads * (PACK // 2) <= cell_reads


@pytest.mark.parametrize("layout", [Layout.SEPARATED, Layout.CELL,
                                    Layout.PACKED], ids=lambda lo: lo.value)
def test_block_read_costs_the_point_reads_it_replaces(env, layout):
    """``scan_cpts`` over the whole stream makes the lookups of one
    ``cpt_into`` per step, so it costs exactly their logical reads:
    L - 1 descents of the CPT tree for ``separated`` and ``cell``, one
    per frame for ``packed`` (fig8a's L·height metric)."""
    def cold(read):
        reader = _reader(env, layout)
        env.pool.evict_all()
        env.stats.reset()
        read(reader)
        return env.stats.logical_reads

    per_step = cold(lambda r: [r.cpt_into(t) for t in range(1, LENGTH)])
    block = cold(lambda r: r.scan_cpts(1, LENGTH))
    tree = cpt_tree_name if layout is Layout.SEPARATED else data_tree_name
    height = env.open_tree(tree(f"s_{layout.value}")).height
    steps = -(-LENGTH // PACK) if layout is Layout.PACKED else LENGTH - 1
    assert block == per_step == steps * height


def test_marginal_point_access_costs_height(env):
    """marginal(t) is one tree descent: exactly ``height`` logical
    reads, regardless of where t falls in the stream."""
    marg_tree = env.open_tree(marg_tree_name("s_separated"))
    reader = _reader(env, Layout.SEPARATED)
    for t in (0, 1, LENGTH // 2, LENGTH - 1):
        env.pool.evict_all()
        env.stats.reset()
        reader.marginal(t)
        assert env.stats.logical_reads == marg_tree.height


@pytest.mark.parametrize("layout,pack", [(Layout.CELL, 1),
                                         (Layout.PACKED, PACK)],
                         ids=["cell", "packed"])
def test_packed_point_access_costs_height_once_per_frame(env, layout, pack):
    """Point access in packed decodes a whole frame but still costs one
    descent; accesses within the cached frame cost zero page reads.
    ``cell`` is the K = 1 case: its frame is one timestep."""
    reader = _reader(env, layout)
    assert reader.pack == pack
    tree = env.open_tree(data_tree_name(f"s_{layout.value}"))
    t = 2 * pack + 1
    env.pool.evict_all()
    env.stats.reset()
    reader.marginal(t)
    assert env.stats.logical_reads == tree.height
    before = env.stats.logical_reads
    reader.cpt_into(t)  # same frame: served from the reader's cache
    reader.marginal(t - t % pack)
    assert env.stats.logical_reads == before


def test_warm_pool_serves_logical_reads_without_physical(env):
    """Re-scanning with a warm pool keeps logical reads constant while
    physical reads drop to zero — the split the benchmarks report."""
    reader = _reader(env, Layout.CELL)
    cold = _cold_scan_reads(env, reader)
    env.stats.reset()
    reader.materialize()
    assert env.stats.logical_reads == cold
    assert env.stats.physical_reads == 0
