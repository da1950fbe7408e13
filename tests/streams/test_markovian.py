"""MarkovianStream model tests: the consistency invariant and the
interval probability semantics (§2)."""

import itertools

import pytest

from repro.errors import StreamError
from repro.probability import CPT, SparseDistribution
from repro.streams import MarkovianStream, single_attribute_space

SPACE = single_attribute_space("location", ["A", "B", "C"])


def tiny_stream() -> MarkovianStream:
    """Three timesteps over three states, consistent by construction."""
    m0 = SparseDistribution({0: 0.5, 1: 0.5})
    c1 = CPT({0: {0: 0.8, 2: 0.2}, 1: {1: 1.0}})
    m1 = c1.apply(m0)
    c2 = CPT({0: {1: 1.0}, 1: {1: 0.5, 2: 0.5}, 2: {2: 1.0}})
    m2 = c2.apply(m1)
    return MarkovianStream("tiny", SPACE, [m0, m1, m2], [c1, c2])


def test_validate_accepts_consistent_stream():
    stream = tiny_stream()
    assert len(stream) == stream.length == 3
    stream.validate()  # no raise


def test_validate_rejects_inconsistent_cpt():
    stream = tiny_stream()
    broken = CPT({0: {0: 1.0}, 1: {1: 1.0}})  # doesn't produce m1
    with pytest.raises(StreamError, match="inconsistent"):
        MarkovianStream("bad", SPACE, stream.marginals,
                        [broken, stream.cpts[1]])


def test_validate_rejects_unnormalized_marginal():
    stream = tiny_stream()
    marginals = list(stream.marginals)
    marginals[0] = SparseDistribution({0: 0.4, 1: 0.4})
    with pytest.raises(StreamError, match="mass"):
        MarkovianStream("bad", SPACE, marginals, stream.cpts)


def test_validate_rejects_states_outside_space():
    m0 = SparseDistribution({7: 1.0})
    with pytest.raises(StreamError, match="outside"):
        MarkovianStream("bad", SPACE, [m0], [])


def test_cpt_orientation():
    stream = tiny_stream()
    assert stream.cpt_into(1) is stream.cpt(0)
    with pytest.raises(StreamError):
        stream.cpt_into(0)
    with pytest.raises(StreamError):
        stream.marginal(3)
    assert stream.cpt_into(2) is stream.cpts[1]


def brute_force_interval(stream, start, state_sets):
    """Enumerate every concrete path and sum the Markov path products."""
    total = 0.0
    supports = [sorted(stream.marginal(start + i).support())
                for i in range(len(state_sets))]
    for path in itertools.product(*supports):
        if any(x not in s for x, s in zip(path, state_sets)):
            continue
        p = stream.marginal(start).prob(path[0])
        for i in range(1, len(path)):
            p *= stream.cpt_into(start + i).row(path[i - 1]).prob(path[i])
        total += p
    return total


def test_interval_probability_matches_path_enumeration():
    stream = tiny_stream()
    for start, sets in [
        (0, [{0, 1}, {0, 1, 2}, {1, 2}]),
        (0, [{0}, {2}]),
        (1, [{1}, {1, 2}]),
        (0, [{0, 1}]),
    ]:
        got = stream.interval_probability(start, sets)
        want = brute_force_interval(stream, start, sets)
        assert got == pytest.approx(want, abs=1e-12)


def test_interval_probability_bounds_checked():
    stream = tiny_stream()
    assert stream.interval_probability(0, []) == 0.0
    with pytest.raises(StreamError):
        stream.interval_probability(1, [{0}, {0}, {0}])
