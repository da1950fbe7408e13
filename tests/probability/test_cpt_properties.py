"""Algebraic properties of the probability layer that the MC index
leans on (§4.2.2): composition is associative, span records composed in
any grouping equal the step-by-step product, destination masking
commutes with composition, and the conditioned span update matches the
reference Reg operator stepping through a conditioned loop."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_reg import ReferenceReg
from repro.lahar.reg import Reg
from repro.probability import CPT, SparseDistribution, decode_block
from repro.query import parse_query
from repro.streams import MarkovianStream, single_attribute_space

NUM_STATES = 4
STATES = list(range(NUM_STATES))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def rows(draw, states=tuple(STATES)):
    support = draw(st.lists(st.sampled_from(states), min_size=1,
                            max_size=len(states), unique=True))
    weights = [draw(st.floats(1e-3, 1.0)) for _ in support]
    total = sum(weights)
    return SparseDistribution({s: w / total for s, w in zip(support, weights)})


@st.composite
def cpts(draw):
    sources = draw(st.lists(st.sampled_from(STATES), min_size=1,
                            max_size=NUM_STATES, unique=True))
    return CPT({src: draw(rows()) for src in sources})


accept_sets = st.sets(st.sampled_from(STATES), min_size=1,
                      max_size=NUM_STATES).map(frozenset)


def brute_compose(a: CPT, b: CPT, via=None) -> CPT:
    """Path-sum reference: out(z|x) = sum_y a(y|x) * b(z|y), with the
    intermediate ``y`` optionally restricted to ``via``."""
    out = {}
    for x, row_a in a.rows():
        acc = {}
        for y, p in row_a.items():
            if via is not None and y not in via:
                continue
            for z, q in dict(b.row(y).items()).items():
                acc[z] = acc.get(z, 0.0) + p * q
        out[x] = SparseDistribution(acc)
    return CPT(out)


# ---------------------------------------------------------------------------
# Composition algebra
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(a=cpts(), b=cpts(), c=cpts())
def test_compose_is_associative(a, b, c):
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert left.approx_equal(right, tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=cpts(), b=cpts())
def test_compose_matches_path_sum(a, b):
    assert a.compose(b).approx_equal(brute_compose(a, b), tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(cpts(), min_size=2, max_size=8),
       data=st.data())
def test_span_grouping_equals_stepwise(steps, data):
    """Composing precomputed span records (any contiguous grouping, the
    MC index's level scheme) equals the left-to-right step product."""
    stepwise = steps[0]
    for cpt in steps[1:]:
        stepwise = stepwise.compose(cpt)
    cut = data.draw(st.integers(1, len(steps) - 1))
    left = steps[0]
    for cpt in steps[1:cut]:
        left = left.compose(cpt)
    right = steps[cut]
    for cpt in steps[cut + 1:]:
        right = right.compose(cpt)
    assert left.compose(right).approx_equal(stepwise, tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=cpts(), b=cpts(), accept=accept_sets)
def test_masking_commutes_with_composition(a, b, accept):
    """Masking the destinations of the earlier piece equals restricting
    the intermediate state of the concatenation — the identity that
    lets the conditioned MC index store fully-masked products."""
    got = a.mask_destinations(accept).compose(b)
    want = brute_compose(a, b, via=accept)
    assert got.approx_equal(want, tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=cpts(), b=cpts(), accept=accept_sets)
def test_masked_products_compose_exactly(a, b, accept):
    """(mask a) . (mask b) == mask of the intermediate AND final state:
    composing two stored conditioned records is itself a conditioned
    record — no re-masking needed at query time."""
    got = a.mask_destinations(accept).compose(b.mask_destinations(accept))
    want = brute_compose(a, b, via=accept).mask_destinations(accept)
    assert got.approx_equal(want, tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=cpts(), accept=accept_sets)
def test_mask_then_normalize_is_conditional_distribution(a, accept):
    """mask -> renormalize yields P(y | x, y in accept) exactly."""
    masked = a.mask_destinations(accept)
    for src, row in a.rows():
        kept = {y: p for y, p in row.items() if y in accept}
        total = sum(kept.values())
        if total <= 0.0:
            continue
        norm = masked.row(src).normalize()
        for y, p in kept.items():
            assert norm.prob(y) == pytest.approx(p / total, abs=1e-12)


# ---------------------------------------------------------------------------
# Conditioned span update vs the reference Reg
# ---------------------------------------------------------------------------

def loop_stream(interior: int, seed_weights=(0.6, 0.3)):
    """An ``A -> (B)* C`` workload whose interior timesteps carry mass
    only on the loop state B and an irrelevant background state: the
    setting where the conditioned span update is exact."""
    space = single_attribute_space("location", ["A", "B", "C", "BG"])
    sid = {v: space.state_id((v,)) for v in ["A", "B", "C", "BG"]}
    w_keep, w_enter = seed_weights
    m0 = SparseDistribution({sid["A"]: 0.5, sid["BG"]: 0.5})
    first = CPT({
        sid["A"]: SparseDistribution({sid["B"]: 0.7, sid["BG"]: 0.3}),
        sid["BG"]: SparseDistribution({sid["B"]: w_enter,
                                       sid["BG"]: 1 - w_enter}),
    })
    mid = CPT({
        sid["B"]: SparseDistribution({sid["B"]: w_keep,
                                      sid["BG"]: 1 - w_keep}),
        sid["BG"]: SparseDistribution({sid["B"]: 0.25, sid["BG"]: 0.75}),
    })
    last = CPT({
        sid["B"]: SparseDistribution({sid["C"]: 0.5, sid["BG"]: 0.5}),
        sid["BG"]: SparseDistribution({sid["C"]: 0.1, sid["BG"]: 0.9}),
    })
    cpts = [first] + [mid] * interior + [last]
    marginals = [m0]
    for cpt in cpts:
        marginals.append(cpt.apply(marginals[-1]))
    stream = MarkovianStream("loop", space, marginals, cpts)
    query = parse_query("location=A -> (location=B)* location=C")
    return stream, query, sid


@pytest.mark.parametrize("interior", [0, 1, 3, 6])
@pytest.mark.parametrize("reg_cls", [ReferenceReg, Reg])
def test_conditioned_span_update_matches_stepwise(interior, reg_cls):
    """One conditioned span update across the loop run equals stepping
    the reference operator through every interior timestep."""
    stream, query, sid = loop_stream(interior)
    accept = frozenset({sid["B"]})
    end = len(stream) - 1
    loop_state = next(
        q for q, link in enumerate(query.links) if link.has_positive_loop
    )

    stepper = ReferenceReg(query, stream.space)
    stepper.initialize(stream.marginal(0))
    for t in range(1, end + 1):
        want = stepper.update(stream.cpt_into(t))

    spanner = reg_cls(query, stream.space)
    spanner.initialize(stream.marginal(0))
    plain = [stream.cpt_into(t) for t in range(1, end + 1)]
    cond = [cpt.mask_destinations(accept) for cpt in plain[:-1]] + [
        plain[-1]]
    if reg_cls is Reg:  # the pieces, applied in order
        plain, cond = (decode_block([cpt.to_bytes() for cpt in pieces])
                       for pieces in (plain, cond))
    else:  # the composed CPTs
        plain, cond = (functools.reduce(CPT.compose, pieces)
                       for pieces in (plain, cond))
    got = spanner.update_loop_span(loop_state, plain, cond, span=end)
    assert got == pytest.approx(want, abs=1e-12)


def test_conditioned_span_kept_mass_is_loop_probability():
    """The sub-stochastic conditioned CPT's row mass equals the exact
    probability of satisfying the loop predicate at every interior
    step (path sum over interior states)."""
    stream, query, sid = loop_stream(interior=3)
    accept = frozenset({sid["B"]})
    end = len(stream) - 1
    cond = stream.cpt_into(1).mask_destinations(accept)
    for t in range(2, end):
        cond = cond.compose(stream.cpt_into(t).mask_destinations(accept))
    cond = cond.compose(stream.cpt_into(end))
    # From A, staying on B for interior steps: 0.7 * 0.6**3.
    mass = cond.row(sid["A"]).total_mass
    assert mass == pytest.approx(0.7 * 0.6 ** 3, abs=1e-12)
