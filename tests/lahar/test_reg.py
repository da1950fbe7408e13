"""Reg operator tests: the vectorized kernel is property-tested against
the pure-Python reference on random streams and random queries, and
both are pinned against hand-computed probabilities on a tiny stream."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lahar import QueryMachine, ReferenceReg, Reg
from repro.probability import CPT, SparseDistribution
from repro.query import InSet, parse_query
from repro.streams import (ENTERED_ROOM_QUERY, MarkovianStream,
                           single_attribute_space, synthetic_stream)
from repro.streams.synthetic import synthetic_space

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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), text=query_texts(),
       opseed=st.integers(0, 10_000))
def test_span_operations_match_reference(seed, text, opseed):
    """The Algorithm 4/5 entry points (gap spans, independence jumps,
    conditioned loop spans) agree between implementations too."""
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
        if mode == "update":
            cpt = stream.cpt_into(t)
            a, b = ref.update(cpt), vec.update(cpt)
            t += 1
        elif mode == "span":
            span = rng.randint(2, 3)
            cpt = stream.cpt_into(t)
            for k in range(1, span):
                cpt = cpt.compose(stream.cpt_into(t + k))
            a, b = ref.update_span(cpt, span), vec.update_span(cpt, span)
            t += span
        elif mode == "indep":
            span = rng.randint(2, 3)
            t += span
            marginal = stream.marginal(t - 1)
            a = ref.update_independent(marginal, span)
            b = vec.update_independent(marginal, span)
        else:
            # Condition on a random predicate so the kept and exited
            # branches both carry mass.
            cpt = stream.cpt_into(t)
            values = rng.sample(VALUES, rng.randint(1, len(VALUES) - 1))
            cond = cpt.mask_destinations(
                InSet("location", values).matching_states(SPACE))
            # State 0 is in every set, so only q >= 1 splits the mass.
            loop_state = rng.randrange(1, len(query)) if len(query) > 1 else 0
            a = ref.update_loop_span(loop_state, cpt, cond, 1)
            b = vec.update_loop_span(loop_state, cpt, cond, 1)
            t += 1
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
    assert reg.update_span(CPT({0: {0: 1.0}}), span=3) == 0.0
    assert reg.update_loop_span(1, CPT({0: {0: 1.0}}),
                                CPT({0: {0: 1.0}})) == 0.0


#: A multi-link query whose negated Kleene loops keep up to 8 DFA sets
#: occupied, over the 42-state synthetic space.
PATROL_QUERY = (
    "location=C0 -> (!location=C5)* location=C1 -> "
    "(!location=C6)* location=C2 -> location=Room"
)


@pytest.fixture(scope="module")
def wide_stream():
    """A 42-state stream whose every CPT row has full support, so each
    timestep's mass covers the whole space."""
    space = synthetic_space(40)
    rng = random.Random(13)
    n = len(space)

    def dense_row():
        weights = [rng.random() for _ in range(n)]
        total = sum(weights)
        return SparseDistribution(
            {s: w / total for s, w in enumerate(weights)})

    marginals = [SparseDistribution.uniform(range(n))]
    cpts = []
    for _ in range(199):
        cpt = CPT({s: dense_row() for s in range(n)})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream("wide", space, marginals, cpts, validate=False)


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
    """Reg's signal through ``update``, ``update_span`` (a composed
    two-step CPT) and ``update_loop_span`` (plain plus masked CPTs),
    with every CPT passed through ``origin`` first."""
    reg = Reg(parse_query(text), stream.space)
    accept = InSet("location", [loop_value]).matching_states(stream.space)
    signal = [reg.initialize(stream.marginal(0))]
    for t in range(1, len(stream) - 3, 4):
        signal.append(reg.update(origin(stream.cpt_into(t))))
        span = stream.cpt_into(t + 1).compose(stream.cpt_into(t + 2))
        signal.append(reg.update_span(origin(span), 2))
        plain = stream.cpt_into(t + 3)
        signal.append(reg.update_loop_span(
            1, origin(plain), origin(plain.mask_destinations(accept))))
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
