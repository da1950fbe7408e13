"""Fixtures shared by more than one test package."""

import random

import pytest

from repro.probability import CPT, SparseDistribution
from repro.streams import MarkovianStream
from repro.streams.synthetic import synthetic_space


@pytest.fixture(scope="session")
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
