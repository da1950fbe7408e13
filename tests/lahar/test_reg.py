"""Reg operator tests: the vectorized kernel is property-tested against
the pure-Python reference on random streams and random queries, and
both are pinned against hand-computed probabilities on a tiny stream.
The block step is tested against one update per step and the reference,
directly and through an access method's walk over an archive; the gap
rules, which apply a block of pieces in order, against the reference
on the pieces' composed CPT."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_reg import ReferenceReg
from repro.access import NaiveScan
from repro.access.base import AccessStats, QueryContext, RegRun
from repro.lahar import QueryMachine, Reg
from repro.probability import CPT, SparseDistribution, decode_block
from repro.query import InSet, parse_query
from repro.storage import StorageEnvironment
from repro.streams import (ENTERED_ROOM_QUERY, Layout, MarkovianStream,
                           write_stream,
                           single_attribute_space, synthetic_stream)

VALUES = ["A", "B", "C", "D", "E"]
SPACE = single_attribute_space("location", VALUES)


def random_stream(seed: int, length: int) -> MarkovianStream:
    rng = random.Random(seed)
    n = len(SPACE)

    def row():
        targets = rng.sample(range(n), rng.randint(1, n))
        weights = [rng.random() + 1e-3 for _ in targets]
        total = sum(weights)
        return SparseDistribution(
            {s: w / total for s, w in zip(targets, weights)})

    marginals = [row()]
    cpts = []
    for _ in range(length - 1):
        cpt = CPT({x: row() for x in marginals[-1].support()})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream("r", SPACE, marginals, cpts)


@st.composite
def query_texts(draw):
    """Random Regular queries over the 5-value space: 1-4 links, each
    optionally preceded by a (possibly negated) Kleene loop."""
    num_links = draw(st.integers(1, 4))
    links = []
    for i in range(num_links):
        pred = f"location={draw(st.sampled_from(VALUES))}"
        if i > 0 and draw(st.booleans()):
            loop_value = draw(st.sampled_from(VALUES))
            bang = "!" if draw(st.booleans()) else ""
            pred = f"({bang}location={loop_value})* {pred}"
        links.append(pred)
    return " -> ".join(links)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), length=st.integers(1, 15),
       text=query_texts())
def test_vectorized_matches_reference(seed, length, text):
    stream = random_stream(seed, length)
    query = parse_query(text)
    ref = ReferenceReg(query, SPACE)
    vec = Reg(query, SPACE)
    ref_probs = [ref.initialize(stream.marginal(0))]
    vec_probs = [vec.initialize(stream.marginal(0))]
    for t in range(1, length):
        cpt = stream.cpt_into(t)
        ref_probs.append(ref.update(cpt))
        vec_probs.append(vec.update(cpt))
    for t, (a, b) in enumerate(zip(ref_probs, vec_probs)):
        assert a == pytest.approx(b, abs=1e-9), f"diverged at t={t}"
    assert ref.updates_performed == vec.updates_performed == length - 1


def pieces(reg: Reg, cpts):
    """The CPTs as ``reg``'s dense pieces, in order: a gap's pieces."""
    return reg.pieces(decode_block([cpt.to_bytes() for cpt in cpts]))


def compose_all(cpts) -> CPT:
    """The stepwise product of the CPTs: the oracle of a gap block."""
    return reduce(CPT.compose, cpts)


def loop_pieces(cpts, accept):
    """The plain and the conditioned pieces crossing a Kleene run: every
    step but the last masked to ``accept`` in the conditioned ones."""
    return cpts, [cpt.mask_destinations(accept) for cpt in cpts[:-1]] + [
        cpts[-1]]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), text=query_texts(),
       opseed=st.integers(0, 10_000))
def test_span_operations_match_reference(seed, text, opseed):
    """The Algorithm 4/5 entry points (gap spans, independence jumps,
    conditioned loop spans) agree between implementations too: Reg
    applies a gap's pieces as one block in order, the reference steps
    once through their composed CPT."""
    length = 14
    stream = random_stream(seed, length)
    query = parse_query(text)
    rng = random.Random(opseed)
    ref = ReferenceReg(query, SPACE)
    vec = Reg(query, SPACE)
    ref.initialize(stream.marginal(0))
    vec.initialize(stream.marginal(0))
    t = 1
    while t < length - 3:
        mode = rng.choice(["update", "span", "indep", "loopspan"])
        span = rng.randint(1, 3)
        cpts = [stream.cpt_into(t + k) for k in range(span)]
        if mode == "update":
            cpt = stream.cpt_into(t)
            a, b = ref.update(cpt), vec.update(cpt)
            t += 1
        elif mode == "span":
            a = ref.update_span(compose_all(cpts), span)
            b = vec.update_span(pieces(vec, cpts), span)
            t += span
        elif mode == "indep":
            span += 1
            t += span
            marginal = stream.marginal(t - 1)
            a = ref.update_independent(marginal, span)
            b = vec.update_independent(marginal, span)
        else:
            # Condition on a random predicate so the kept and exited
            # branches both carry mass.
            values = rng.sample(VALUES, rng.randint(1, len(VALUES) - 1))
            plain, cond = loop_pieces(
                cpts, InSet("location", values).matching_states(SPACE))
            # State 0 is in every set, so only q >= 1 splits the mass.
            loop_state = rng.randrange(1, len(query)) if len(query) > 1 else 0
            a = ref.update_loop_span(loop_state, compose_all(plain),
                                     compose_all(cond), span)
            b = vec.update_loop_span(loop_state, pieces(vec, plain),
                                     pieces(vec, cond), span)
            t += span
        assert a == pytest.approx(b, abs=1e-9), f"{mode} diverged at t={t}"
    assert ref.updates_performed == vec.updates_performed


@pytest.mark.parametrize("impl", [Reg, ReferenceReg])
def test_two_link_probability_by_hand(impl):
    """P(match ends at t) for A -> B equals the interval probability of
    (x_{t-1}=A, x_t=B)."""
    m0 = SparseDistribution({0: 0.6, 1: 0.4})  # A, B
    c1 = CPT({0: {1: 0.5, 2: 0.5}, 1: {0: 1.0}})
    m1 = c1.apply(m0)
    c2 = CPT({0: {1: 1.0}, 1: {2: 1.0}, 2: {0: 1.0}})
    m2 = c2.apply(m1)
    stream = MarkovianStream("h", SPACE, [m0, m1, m2], [c1, c2])
    reg = impl(parse_query("location=A -> location=B"), SPACE)
    probs = [reg.initialize(stream.marginal(0)),
             reg.update(stream.cpt_into(1)), reg.update(stream.cpt_into(2))]
    assert probs[0] == 0.0  # one timestep cannot complete two links
    assert probs[1] == pytest.approx(
        stream.interval_probability(0, [{0}, {1}]))
    assert probs[2] == pytest.approx(
        stream.interval_probability(1, [{0}, {1}]))


@pytest.mark.parametrize("impl", [Reg, ReferenceReg])
def test_accept_expires_after_one_step(impl):
    """Acceptance means "a match *ends* here": constant mass on B after
    an A->B match keeps re-matching only while A-mass keeps arriving."""
    reg = impl(parse_query("location=A -> location=B"), SPACE)
    reg.initialize(SparseDistribution({0: 1.0}))
    stay_b = CPT({0: {1: 1.0}, 1: {1: 1.0}})
    assert reg.update(stay_b) == pytest.approx(1.0)  # A then B: match
    assert reg.update(stay_b) == pytest.approx(0.0)  # B then B: no new A


def test_query_machine_collapse_keeps_negated_loops():
    machine = QueryMachine(
        parse_query("location=A -> (!location=B)* location=B"), SPACE)
    # NFA state 1 ("A seen") survives a gap only through its negated
    # loop; everything else collapses to the bare start state.
    assert machine.collapse(0b111) == 0b011
    assert machine.collapse(0b100) == 0b001
    machine_plain = QueryMachine(
        parse_query("location=A -> location=B"), SPACE)
    assert machine_plain.collapse(0b111) == 0b001


def test_empty_reg_stays_empty():
    reg = Reg(parse_query("location=A -> location=B"), SPACE)
    # No initialize: updates on an empty kernel emit zero probability.
    assert reg.update(CPT({0: {0: 1.0}})) == 0.0
    assert reg.update_independent(SparseDistribution({0: 1.0})) == 0.0
    stay = [CPT({0: {0: 1.0}})] * 2
    assert reg.update_span(pieces(reg, stay), span=3) == 0.0
    assert reg.update_loop_span(1, pieces(reg, stay), pieces(reg, stay),
                                span=3) == 0.0


#: A multi-link query whose negated Kleene loops keep up to 8 DFA sets
#: occupied, over the 42-state synthetic space.
PATROL_QUERY = (
    "location=C0 -> (!location=C5)* location=C1 -> "
    "(!location=C6)* location=C2 -> location=Room"
)


@pytest.mark.parametrize("text", [ENTERED_ROOM_QUERY, PATROL_QUERY],
                         ids=["entered-room", "patrol"])
def test_wide_stream_matches_reference(wide_stream, text):
    query = parse_query(text)
    ref = ReferenceReg(query, wide_stream.space)
    vec = Reg(query, wide_stream.space)
    pairs = [(ref.initialize(wide_stream.marginal(0)),
              vec.initialize(wide_stream.marginal(0)))]
    for t in range(1, len(wide_stream)):
        cpt = wide_stream.cpt_into(t)
        pairs.append((ref.update(cpt), vec.update(cpt)))
    assert max(abs(a - b) for a, b in pairs) < 1e-9
    assert max(a for a, _ in pairs) > 0.0


def _round_trip(cpt: CPT) -> CPT:
    return CPT.from_bytes(cpt.to_bytes())


def _drive(stream, text: str, loop_value: str, origin):
    """Reg's signal through ``update`` with every CPT passed through
    ``origin`` first, between two-piece ``update_span`` and
    ``update_loop_span`` gaps (plain plus masked pieces)."""
    reg = Reg(parse_query(text), stream.space)
    accept = InSet("location", [loop_value]).matching_states(stream.space)
    signal = [reg.initialize(stream.marginal(0))]
    for t in range(1, len(stream) - 4, 5):
        signal.append(reg.update(origin(stream.cpt_into(t))))
        gap = [stream.cpt_into(t + 1), stream.cpt_into(t + 2)]
        signal.append(reg.update_span(pieces(reg, gap), 2))
        gap = [stream.cpt_into(t + 3), stream.cpt_into(t + 4)]
        plain, cond = loop_pieces(gap, accept)
        signal.append(reg.update_loop_span(
            1, pieces(reg, plain), pieces(reg, cond), 2))
    return signal


def test_both_cpt_origins_give_one_signal_on_the_10_state_stream():
    """A CPT built from a mapping and its decoded record feed Reg the
    same CSR entries, so the signals agree bit for bit."""
    stream = synthetic_stream("syn", num_snippets=6, seed=3)
    assert len(stream.space) == 10
    text = "location=Door -> (location=C1)* location=Room"
    built = _drive(stream, text, "C1", lambda c: c)
    decoded = _drive(stream, text, "C1", _round_trip)
    assert built == decoded
    assert max(built) > 0.0


def test_both_cpt_origins_give_one_signal_on_the_wide_stream(wide_stream):
    built = _drive(wide_stream, PATROL_QUERY, "C5", lambda c: c)
    decoded = _drive(wide_stream, PATROL_QUERY, "C5", _round_trip)
    assert built == decoded
    assert max(built) > 0.0


def _variant(cpt: CPT, rng: random.Random) -> CPT:
    """The CPT itself, a sub-stochastic masked copy, or a copy missing
    some source rows (their mass is dropped)."""
    mode = rng.randrange(3)
    if mode == 1:
        return cpt.mask_destinations(rng.sample(range(len(SPACE)), 2))
    if mode == 2:
        return CPT({s: row for s, row in cpt.rows() if rng.random() < 0.5})
    return cpt


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), length=st.integers(2, 15),
       text=query_texts(), data=st.data())
def test_update_block_matches_stepwise_and_reference(seed, length, text,
                                                     data):
    """Cutting the steps into blocks of any sizes (K = 1 included) gives
    the signal of one ``update`` per step and of the reference, on
    stochastic, sub-stochastic and row-missing CPTs alike."""
    stream = random_stream(seed, length)
    rng = random.Random(seed)
    cpts = [_variant(stream.cpt_into(t), rng) for t in range(1, length)]
    query = parse_query(text)
    ref, step, block = (ReferenceReg(query, SPACE), Reg(query, SPACE),
                        Reg(query, SPACE))
    for reg in (ref, step, block):
        reg.initialize(stream.marginal(0))
    want_ref = [ref.update(cpt) for cpt in cpts]
    want = [step.update(cpt) for cpt in cpts]
    got = []
    while len(got) < len(cpts):
        k = data.draw(st.integers(1, len(cpts) - len(got)))
        records = [cpt.to_bytes() for cpt in cpts[len(got):len(got) + k]]
        probs = block.update_block(block.pieces(decode_block(records)))
        assert probs.shape == (k,)
        got.extend(probs.tolist())
    for t, (a, b, c) in enumerate(zip(want_ref, want, got), start=1):
        assert c == pytest.approx(b, abs=1e-9), f"diverged at t={t}"
        assert c == pytest.approx(a, abs=1e-9), f"diverged at t={t}"
    assert block.updates_performed == step.updates_performed == length - 1


@pytest.mark.parametrize("text", [ENTERED_ROOM_QUERY, PATROL_QUERY],
                         ids=["entered-room", "patrol"])
def test_wide_gap_longer_than_a_block_matches_reference(wide_stream, text):
    """A gap of 20 pieces on the 42-state stream is more than
    ``block_steps`` (9): ``Reg.pieces`` densifies it 9 pieces at a time,
    and both gap rules still agree with the reference stepping through
    the composed CPT."""
    query = parse_query(text)
    space = wide_stream.space
    plain, cond = loop_pieces(
        [wide_stream.cpt_into(t) for t in range(2, 22)],
        InSet("location", ["C0", "C5", "C6"]).matching_states(space))
    rows = []
    for gap in ("span", "loop"):
        ref, vec = ReferenceReg(query, space), Reg(query, space)
        assert len(plain) > vec.block_steps == 9
        for reg in (ref, vec):
            reg.initialize(wide_stream.marginal(0))
            reg.update(wide_stream.cpt_into(1))
        if gap == "span":
            want = ref.update_span(compose_all(plain), 20)
            got = vec.update_span(pieces(vec, plain), 20)
        else:
            want = ref.update_loop_span(1, compose_all(plain),
                                        compose_all(cond), 20)
            got = vec.update_loop_span(1, pieces(vec, plain),
                                       pieces(vec, cond), 20)
        cpt = wide_stream.cpt_into(22)
        rows.append((want, got, ref.update(cpt), vec.update(cpt)))
    assert max(max(row) for row in rows) > 0.0
    for want, got, want_next, got_next in rows:
        assert got == pytest.approx(want, abs=1e-9)
        assert got_next == pytest.approx(want_next, abs=1e-9)


@pytest.mark.parametrize("layout", [Layout.SEPARATED, Layout.CELL,
                                    Layout.PACKED], ids=lambda lo: lo.value)
def test_walk_splits_long_runs_into_capped_blocks(wide_stream, tmp_path,
                                                  layout, monkeypatch):
    """A scan of the 42-state stream walks one run of 199 adjacent steps:
    it reads them as one run, and decodes them in blocks of at most
    ``block_steps`` (9 at 42 states), then the lone tail step as a block
    of one. Walks of 4 and 5 adjacent steps are one run and one block
    each. Every signal is the reference's."""
    import repro.access.base as base

    query = parse_query(PATROL_QUERY)
    ref = ReferenceReg(query, wide_stream.space)
    want = [ref.initialize(wide_stream.marginal(0))] + [
        ref.update(wide_stream.cpt_into(t)) for t in range(1, len(wide_stream))]
    with StorageEnvironment(str(tmp_path)) as env:
        reader = write_stream(env, wide_stream, layout=layout)
        runs, blocks = [], []
        real_run = reader.cpt_run

        def run(start, stop):
            runs.append(stop - start)
            return real_run(start, stop)

        def decode(records):
            blocks.append(len(records))
            return decode_block(records)

        reader.cpt_run = run
        monkeypatch.setattr(base, "decode_block", decode)
        ctx = QueryContext(reader, query)
        result = NaiveScan().run(ctx)
        cap = Reg(query, wide_stream.space).block_steps
        assert cap == 9
        assert runs == [199]
        assert blocks == [cap] * 22 + [1]
        short = [list(RegRun(ctx, AccessStats()).walk(range(0, stop)))
                 for stop in (5, 6)]
        assert runs == [199, 4, 5]
        assert blocks == [cap] * 22 + [1, 4, 5]
    assert result.stats.cpts_read == result.stats.reg_updates == 199
    assert [t for t, _ in result.signal] == list(range(len(wide_stream)))
    for signal in [result.signal] + short:
        assert max(abs(a - p) for a, (_, p) in zip(want, signal)) < 1e-9
