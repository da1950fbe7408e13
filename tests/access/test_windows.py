"""Window edges of :meth:`RegRun.walk`: the walk reads a window of
records (each run's CPTs, each gap's MC pieces) before it decodes any,
decodes the window once and steps Reg over its dense pieces. These tests
put the edges where they are easiest to get wrong — a run cut between
two windows, a gap whose pieces straddle two dense stacks, a gap longer
than a whole stack (at 129 states a stack holds one step) — and hold
plain and conditioned MC to the naive scan, every read to the dry run's
prediction, and the decode calls to one per window."""

import math

import pytest

import repro.access.base as base
from repro.access import VariableMC
from repro.access.base import RegRun
from repro.core import Caldera
from repro.lahar import Reg
from repro.probability import CPT, SparseDistribution
from repro.streams import (MarkovianStream, single_attribute_space,
                           synthetic_stream)

TOL = 1e-9
PLAIN_QUERY = "location=Door -> (!location=Room)* location=Room"
CONDITIONED_QUERY = "location=Door -> (location=C1)* location=Room"
#: (corridor cells, states, Reg.block_steps): at 129 states a dense
#: stack holds one step, so every gap of two or more pieces spans stacks.
SPACES = [(40, 42, 9), (127, 129, 1)]


@pytest.fixture(scope="module", params=SPACES, ids=lambda s: f"{s[1]}-states")
def wide_db(request, tmp_path_factory):
    cells, states, cap = request.param
    database = Caldera(str(tmp_path_factory.mktemp(f"windows{states}")))
    stream = synthetic_stream("syn", num_snippets=12, density=0.5,
                              match_rate=0.6, seed=41, num_cells=cells)
    assert len(stream.space) == states
    loop = next(link.loop for link in database.parse(CONDITIONED_QUERY).links
                if link.has_positive_loop)
    database.archive(stream, mc_alpha=2, conditioned_predicates=[loop])
    yield database, cap
    database.close()


def _windows(monkeypatch):
    """Record each window the walk applies, as ``[(times, pieces,
    is_run)]``, the records of each decode call, and the loop spans."""
    windows, decoded, loops = [], [], []
    real_apply, real_decode = RegRun._apply, base.decode_block
    real_loop = RegRun.loop_span

    def apply(self, records, items):
        windows.append([(list(times), k, update is None)
                        for times, k, update in items])
        return real_apply(self, records, items)

    def decode(records):
        decoded.append(len(records))
        return real_decode(records)

    def loop_span(self, loop, prev, t):
        loops.append((prev, t))
        return real_loop(self, loop, prev, t)

    monkeypatch.setattr(RegRun, "_apply", apply)
    monkeypatch.setattr(base, "decode_block", decode)
    monkeypatch.setattr(RegRun, "loop_span", loop_span)
    return windows, decoded, loops


def _straddles(window, cap):
    """Whether a gap of ``window`` has pieces on both sides of a dense
    stack's edge (stacks hold ``cap`` pieces)."""
    at = 0
    for _, k, is_run in window:
        if not is_run and k > 1 and at // cap != (at + k - 1) // cap:
            return True
        at += k
    return False


@pytest.mark.parametrize("text,conditioned", [(PLAIN_QUERY, False),
                                              (CONDITIONED_QUERY, True)],
                         ids=["plain", "conditioned"])
def test_window_edges_agree_with_naive(wide_db, monkeypatch, text,
                                       conditioned):
    db, cap = wide_db
    assert Reg(db.parse(text), db.reader("syn").space).block_steps == cap
    naive = dict(db.query("syn", text, method="naive").signal)
    assert max(naive.values()) > 0.0
    method = VariableMC(use_conditioned=conditioned)

    ctx = db.context("syn", text)
    dry = method.dry_run(ctx)
    windows, decoded, loops = _windows(monkeypatch)
    result = method.run(db.context("syn", text))
    monkeypatch.undo()
    assert bool(loops) == conditioned

    # Every emitted value is the scan's; the dry run read the same pages.
    assert result.signal
    for t, p in result.signal:
        assert naive.get(t, 0.0) == pytest.approx(p, abs=TOL), t
    assert result.stats.io.logical_reads == dry.reads + ctx.probe_reads

    # The edges were crossed: a run cut between windows, a gap across
    # two stacks (and at one step per stack, a gap longer than a stack).
    assert len(windows) > 1
    assert any(a[-1][2] and b[0][2] and a[-1][0][-1] + 1 == b[0][0][0]
               for a, b in zip(windows, windows[1:]))
    assert any(_straddles(window, cap) for window in windows)

    # One decode per window, all the walk's records; at most
    # 2 * ceil(records / block_steps) + 1 calls.
    stats = result.stats
    records = stats.cpts_read + stats.mc_lookups.pieces
    assert sum(decoded) == records
    assert len(decoded) == len(windows)
    assert len(decoded) <= 2 * math.ceil(records / cap) + 1


def test_conditioned_query_decodes_once_per_window(monkeypatch, tmp_path):
    """On the 10-state fixture a dense stack holds 163 steps: the
    conditioned query's few hundred records take a handful of decode
    calls, not one per gap, and still equal the scan at every emitted
    timestep."""
    with Caldera(str(tmp_path)) as db:
        stream = synthetic_stream("syn", num_snippets=10, density=0.4,
                                  match_rate=0.6, seed=31)
        loop = next(link.loop
                    for link in db.parse(CONDITIONED_QUERY).links
                    if link.has_positive_loop)
        db.archive(stream, mc_alpha=2, conditioned_predicates=[loop])
        naive = dict(db.query("syn", CONDITIONED_QUERY,
                              method="naive").signal)
        ctx = db.context("syn", CONDITIONED_QUERY)
        cap = Reg(ctx.query, ctx.space).block_steps
        windows, decoded, loops = _windows(monkeypatch)
        result = VariableMC(use_conditioned=True).run(ctx)
    assert loops
    stats = result.stats
    records = stats.cpts_read + stats.mc_lookups.pieces
    gaps = sum(1 for window in windows for _, _, is_run in window
               if not is_run)
    assert (cap, sum(decoded)) == (163, records)
    assert len(decoded) <= 2 * math.ceil(records / cap) + 1 < gaps
    for t, p in result.signal:
        assert naive.get(t, 0.0) == pytest.approx(p, abs=TOL), t


def _loop_episode(interior: int) -> MarkovianStream:
    """``A``, then ``interior + 1`` steps of ``B`` mass, then ``C``: the
    walk crosses the B run in one conditioned loop span whose final step
    lands on C."""
    space = single_attribute_space("location", ["A", "B", "C", "BG"])
    a, b, c, bg = (space.state_id((v,)) for v in ["A", "B", "C", "BG"])
    cpts = [CPT({a: {b: 0.7, bg: 0.3}, bg: {b: 0.3, bg: 0.7}})]
    cpts += [CPT({b: {b: 0.6, bg: 0.4}, bg: {b: 0.25, bg: 0.75}})] * interior
    cpts += [CPT({b: {c: 0.5, bg: 0.5}, bg: {c: 0.1, bg: 0.9}})]
    marginals = [SparseDistribution({a: 0.5, bg: 0.5})]
    for cpt in cpts:
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream("loop", space, marginals, cpts)


@pytest.mark.parametrize("interior", [1, 6])
def test_loop_span_masks_the_interior_not_the_final_step(
        tmp_path, monkeypatch, interior):
    """The conditioned interior is masked to the loop states, and the
    final step into the C event is not: the match that ends on C
    through a run of B's keeps its probability."""
    text = "location=A -> (location=B)* location=C"
    with Caldera(str(tmp_path)) as db:
        loop = next(link.loop for link in db.parse(text).links
                    if link.has_positive_loop)
        db.archive(_loop_episode(interior), mc_alpha=2,
                   conditioned_predicates=[loop])
        naive = dict(db.query("loop", text, method="naive").signal)
        _, _, loops = _windows(monkeypatch)
        result = VariableMC(use_conditioned=True).run(
            db.context("loop", text))
    assert loops == [(0, interior + 2)]
    end, p = result.signal[-1]
    assert (end, p) == (interior + 2, pytest.approx(naive[end], abs=TOL))
    assert p > 1e-3
