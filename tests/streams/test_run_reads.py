"""Run reads against point reads, and against the dry reader's count.

Every layout (``separated``, ``cell``, and ``packed`` with K of 1, 3
and 8) is archived on 512-byte pages, where some records and frames
spill to overflow chains. A run read must return what a point read per
timestep returns, and the dry reader must count exactly the leaf and
branch pages a sequence of reads makes; overflow chains are what its
inline assumption leaves out, so they are counted apart."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.probability import SparseDistribution
from repro.storage import StorageEnvironment, encode_key
from repro.storage.btree import OverflowNode
from repro.streams import Layout, open_reader, write_stream
from repro.streams.archive import cpt_tree_name, data_tree_name

from test_archive import random_stream

LENGTH = 150
#: (archived name, layout, pack factor)
ARCHIVES = [("sep", Layout.SEPARATED, 1), ("cell", Layout.CELL, 1),
            ("k1", Layout.PACKED, 1), ("k3", Layout.PACKED, 3),
            ("k8", Layout.PACKED, 8)]


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    with StorageEnvironment(str(tmp_path_factory.mktemp("runs")),
                            page_size=512) as env:
        stream = random_stream(11, LENGTH, 12)
        for name, layout, pack in ARCHIVES:
            stream.name = name
            write_stream(env, stream, layout=layout, pack=pack)
        env.overflow_reads = 0
        real_get = env.pool.get

        def get(client, page_id):
            node = real_get(client, page_id)
            if isinstance(node, OverflowNode):
                env.overflow_reads += 1
            return node

        env.pool.get = get
        yield env


def _reader(env, name):
    return open_reader(env, name, random_stream(11, 2, 12).space)


def _cpt_tree(env, name, layout):
    tree = cpt_tree_name if layout is Layout.SEPARATED else data_tree_name
    return env.open_tree(tree(name))


def test_some_records_spill_and_some_stay_inline(env):
    flags = [flag for name in env.list_trees()
             for leaf in env.open_tree(name).leaves() for flag in leaf.flags]
    assert 0 < sum(flags) < len(flags)
    assert all(env.open_tree(name).num_leaves > 1
               for name in env.list_trees())


@pytest.mark.parametrize("name,layout,pack", ARCHIVES,
                         ids=[a[0] for a in ARCHIVES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_reads_equal_point_reads(env, name, layout, pack, data):
    start = data.draw(st.integers(0, LENGTH), label="start")
    stop = data.draw(st.integers(start, LENGTH), label="stop")
    runs, points = _reader(env, name), _reader(env, name)
    assert [SparseDistribution.from_bytes(record)
            for record in runs.marginal_run(start, stop)] == \
        [points.marginal(t) for t in range(start, stop)]
    lo = max(1, start)  # no CPT into timestep 0
    if lo <= stop:
        assert list(runs.cpt_run(lo, stop)) == \
            [points.cpt_record(t) for t in range(lo, stop)]


def _op(env, name, layout, pack):
    """A strategy of one read: a marginal, a CPT, or a run of CPTs."""
    fences = _reader(env, name).fences()["cpt" if layout is
                                         Layout.SEPARATED else "data"]
    runs = st.integers(1, LENGTH - 1).flatmap(
        lambda a: st.tuples(st.just("run"), st.just(a),
                            st.integers(a, min(LENGTH, a + 60))))
    # A run that ends on the last key of a leaf.
    to_fence = st.sampled_from(fences).flatmap(
        lambda f: st.tuples(st.just("run"), st.integers(1, f), st.just(f)))
    # A marginal read, then a short run that starts in the frame it
    # cached (when the frame holds more than one timestep).
    in_frame = st.integers(0, LENGTH - 2).flatmap(
        lambda t: st.tuples(st.just("cached"), st.just(t),
                            st.integers(t + 1, min(LENGTH,
                                                   t + 1 + 2 * pack))))
    points = st.tuples(st.sampled_from(["marginal", "cpt"]),
                       st.integers(1, LENGTH - 1))
    return st.one_of(runs, to_fence, in_frame, points)


@pytest.mark.parametrize("name,layout,pack", ARCHIVES,
                         ids=[a[0] for a in ARCHIVES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dry_reads_equal_the_io_delta(env, name, layout, pack, data):
    reader = _reader(env, name)
    dry = reader.dry()
    ops = data.draw(st.lists(_op(env, name, layout, pack), min_size=1,
                             max_size=8), label="ops")
    for op in ops:
        snap, overflow = env.stats.snapshot(), env.overflow_reads
        before = dry.reads
        if op[0] == "marginal":
            reader.marginal(op[1])
            dry.marginal(op[1])
        elif op[0] == "cpt":
            reader.cpt_record(op[1])
            dry.cpt_record(op[1])
        else:
            if op[0] == "cached":
                reader.marginal(op[1])
                dry.marginal(op[1])
            start, stop = max(1, op[1] + (op[0] == "cached")), op[2]
            assert len(list(reader.cpt_run(start, stop))) == stop - start
            assert len(list(dry.cpt_run(start, stop))) == stop - start
        reads = env.stats.delta(snap).logical_reads
        assert reads - (env.overflow_reads - overflow) == \
            dry.reads - before, op


@pytest.mark.parametrize("name,layout,pack", ARCHIVES,
                         ids=[a[0] for a in ARCHIVES])
def test_a_run_to_a_leaf_end_reads_no_further(env, name, layout, pack):
    """A run whose last record ends a leaf costs the descent and the
    leaves up to that one: the next leaf is not read."""
    tree = _cpt_tree(env, name, layout)
    fence = _reader(env, name).fences()[
        "cpt" if layout is Layout.SEPARATED else "data"][0]
    assert fence > 1
    reader = _reader(env, name)
    env.pool.evict_all()
    snap, overflow = env.stats.snapshot(), env.overflow_reads
    list(reader.cpt_run(1, fence))
    assert env.stats.delta(snap).logical_reads - \
        (env.overflow_reads - overflow) == tree.height


def test_a_lost_record_fails_the_run(env):
    """Keys are unique, so a run that finds fewer records than
    timesteps has lost some: it raises, it does not come up short."""
    tree = env.open_tree(cpt_tree_name("sep"))
    with pytest.raises(StorageError, match="missing"):
        list(tree.run_values(encode_key((5,)), encode_key((9,)), 5))
