"""Array reads of BT_C and BT_P against the per-entry cursors.

Relevant events (Algorithms 4 and 5), Algorithm 2's anchors and
Algorithm 3's sorted access read one value's key range a leaf at a
time as arrays. :mod:`reference_cursors` keeps the per-entry cursors
they replace; over random windows and link predicates (equality,
``InSet``, a join-indexed dimension predicate and a dimension predicate
read through its value-level fallback) the array reads must find the
same events with the same page reads, the same anchors with no more,
and pop the same sequence with the same reads after every pop.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_cursors import (
    PredicateProbCursor as ReferenceProbCursor,
    merge_join_anchors,
    relevant_events,
)

from repro.access import FixedBTree, collect_relevant_events
from repro.core import Caldera
from repro.storage import DEFAULT_PAGE_SIZE
from repro.streams import synthetic_stream

#: Joined at archive time; ``Wing`` is not, so its predicates fall back
#: to one term per location.
KIND = {"Door": "entry", "Room": "space", "C0": "hall", "C1": "hall",
        "C2": "hall"}
WING = {"C0": "west", "C1": "west", "C3": "east", "C4": "east",
        "Door": "east"}
PREDICATES = [
    "location=C1", "location=Door", "location=Room", "location=C3",
    "location=C6", "location in {C0, C4}", "location in {Door, Room, C2}",
    "dim(location,Kind)=hall", "dim(location,Kind)=space",
    "dim(location,Wing)=east", "dim(location,Wing)=west",
]


def _database(path, page_size):
    """A sparse and a dense stream archived on pages of ``page_size``."""
    database = Caldera(str(path), page_size=page_size, pool_pages=16)
    database.register_dimension_table("Kind", KIND)
    database.register_dimension_table("Wing", WING)
    for name, density in (("sparse", 0.15), ("dense", 0.8)):
        stream = synthetic_stream(name, num_snippets=8, density=density,
                                  match_rate=0.6, seed=11)
        database.archive(stream, join_tables=("Kind",))
    return database


@pytest.fixture(scope="module")
def default_db(tmp_path_factory):
    with _database(tmp_path_factory.mktemp("default"),
                   DEFAULT_PAGE_SIZE) as database:
        yield database


@pytest.fixture(scope="module", params=["small_pages", "default_pages"])
def db(request, tmp_path_factory, default_db):
    """On small (512-byte) pages each value's entries span many leaves
    under a tree of more than one level."""
    if request.param == "default_pages":
        yield default_db
        return
    with _database(tmp_path_factory.mktemp("small"), 512) as database:
        yield database


def draw_context(db, data, window=True):
    """A context over a random stream and fixed-length query, and a
    random window unless ``window`` is false."""
    stream = data.draw(st.sampled_from(["sparse", "dense"]))
    links = data.draw(st.lists(st.sampled_from(PREDICATES), min_size=1,
                               max_size=3))
    start, stop = 0, db.stream_meta(stream).length
    if window:
        start = data.draw(st.integers(0, stop - 1))
        stop = data.draw(st.integers(start + 1, stop))
    return db.context(stream, " -> ".join(links), start=start, stop=stop)


def _reads(ctx, compute):
    """``compute()`` and the logical page reads it made."""
    io = ctx.reader.io
    snap = io.snapshot()
    out = compute()
    return out, io.delta(snap).logical_reads


SETTINGS = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(data=st.data())
def test_events_equal_the_cursor_merge_read_for_read(db, data):
    ctx = draw_context(db, data)
    predicates = ctx.query.predicates()
    want, want_reads = _reads(ctx, lambda: relevant_events(ctx, predicates))
    (times, matched), reads = _reads(
        ctx, lambda: collect_relevant_events(ctx, predicates))
    got = [(t, {i for i in range(len(predicates)) if matched[i, k]})
           for k, t in enumerate(times.tolist())]
    assert got == want
    assert reads == want_reads


@SETTINGS
@given(data=st.data())
def test_anchors_equal_the_merge_join(db, data):
    """Every window: the same anchors, and no more reads than reading
    each link's whole window range (the bound the planner predicts)."""
    ctx = draw_context(db, data)
    want = merge_join_anchors(ctx)
    got, reads = _reads(ctx, lambda: FixedBTree.anchors(ctx))
    assert got == want
    n = len(ctx.query)
    _, bound = _reads(ctx, lambda: [
        ctx.event_times(p, ctx.start + i, ctx.stop - n + i + 1)
        for i, p in enumerate(ctx.query.predicates())
        if ctx.terms_for("btc", p) is not None and ctx.stop - ctx.start >= n])
    assert reads <= bound


@SETTINGS
@given(data=st.data())
def test_anchors_read_no_more_than_the_merge_join_on_whole_streams(
        default_db, data):
    """Over the whole stream, on pages of the default size, the
    rarest-first intersection reads no more than the merge join. That
    does not hold in general: in a window past the last entry of link 0
    the merge join stops after one descent, while the rarest-first read
    starts at another link, and on small pages walking a range's leaves
    can cost more than the merge join's seeks over them."""
    ctx = draw_context(default_db, data, window=False)
    _, want_reads = _reads(ctx, lambda: merge_join_anchors(ctx))
    _, reads = _reads(ctx, lambda: FixedBTree.anchors(ctx))
    assert reads <= want_reads


@SETTINGS
@given(data=st.data())
def test_sorted_access_pops_equal_the_per_entry_cursors(db, data):
    ctx = draw_context(db, data)
    for predicate in ctx.query.predicates():
        for cursor in (ReferenceProbCursor(ctx, predicate),
                       ctx.prob_cursor(predicate)):
            pops, reads = [], []
            snap = ctx.reader.io.snapshot()
            while cursor.peek_prob() is not None:
                pops.append(cursor.pop())
                reads.append(ctx.reader.io.delta(snap).logical_reads)
            assert cursor.pop() is None
            if isinstance(cursor, ReferenceProbCursor):
                want = (pops, reads)
        assert (pops, reads) == want
