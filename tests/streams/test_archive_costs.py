"""Page-read accounting over the archive layouts (satellite of the
layout experiment, Fig 8): the logical-read counts of scans and point
accesses are exact functions of tree height, leaf count and pack
factor, so the tests pin them exactly rather than approximately. A
point read costs a descent; a run of timesteps costs one descent, then
one read per further leaf."""

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


def _tree_run(env, name):
    """A run over a whole tree: its descent, then its other leaves."""
    tree = env.open_tree(name)
    return tree.height + tree.num_leaves - 1


@pytest.mark.parametrize("layout", [Layout.SEPARATED, Layout.CELL,
                                    Layout.PACKED], ids=lambda lo: lo.value)
def test_scan_reads_each_leaf_once(env, layout):
    """``materialize`` reads each tree of the archive as one run: a
    descent, then every further leaf once, whatever the pack factor."""
    name = f"s_{layout.value}"
    reads = _cold_scan_reads(env, _reader(env, layout))
    if layout is Layout.SEPARATED:
        assert reads == _tree_run(env, marg_tree_name(name)) + \
            _tree_run(env, cpt_tree_name(name))
    else:
        assert reads == _tree_run(env, data_tree_name(name))


@pytest.mark.parametrize("layout", [Layout.SEPARATED, Layout.CELL,
                                    Layout.PACKED], ids=lambda lo: lo.value)
def test_block_read_costs_a_descent_and_a_read_per_leaf(env, layout):
    """``scan_cpts`` over the whole stream is one run read: the CPT (or
    data) tree's height plus one read per further leaf, as the dry
    reader predicts, where a ``cpt_into`` per step costs a descent per
    step (one per frame on ``packed``, fig8a's old L·height metric)."""
    def cold(read):
        reader = _reader(env, layout)
        env.pool.evict_all()
        env.stats.reset()
        read(reader)
        return env.stats.logical_reads

    per_step = cold(lambda r: [r.cpt_into(t) for t in range(1, LENGTH)])
    block = cold(lambda r: r.scan_cpts(1, LENGTH))
    name = (cpt_tree_name if layout is Layout.SEPARATED
            else data_tree_name)(f"s_{layout.value}")
    tree = env.open_tree(name)
    steps = -(-LENGTH // PACK) if layout is Layout.PACKED else LENGTH - 1
    assert per_step == steps * tree.height
    assert block == _tree_run(env, name) < per_step
    dry = _reader(env, layout).dry()
    list(dry.cpt_run(1, LENGTH))
    assert dry.reads == block


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
