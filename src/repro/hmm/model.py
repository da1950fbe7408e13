"""Hidden Markov Model definition (§2.1, [Rabiner 29]).

An HMM infers a sequence of hidden states (e.g., Bob's locations) from a
sequence of observations (e.g., RFID tag reads). It combines:

- *physical constraints* — the sparse transition CPT only connects
  adjacent locations (you cannot walk through walls);
- *statistical likelihoods* — the emission model scores each observation
  against each candidate state.

Emission models are pluggable (any :class:`EmissionModel`); the
examples and tests use :class:`TabularEmission`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Protocol, Sequence

from ..errors import InferenceError
from ..probability import CPT, SparseDistribution


class EmissionModel(Protocol):
    """Scores observations against hidden states."""

    def likelihood(self, observation) -> Mapping[int, float]:
        """Per-state likelihood ``p(observation | state)``.

        States omitted from the mapping have zero likelihood, *except*
        that an empty mapping means "uninformative observation" (all
        states equally likely) — the convention used for missing sensor
        readings.
        """
        ...


class TabularEmission:
    """Emission model backed by an explicit table.

    Parameters
    ----------
    table:
        ``observation_symbol -> {state_id -> likelihood}``.
    default_uniform:
        If true, unknown symbols are treated as uninformative rather than
        raising.
    """

    def __init__(
        self,
        table: Mapping[Hashable, Mapping[int, float]],
        default_uniform: bool = False,
    ) -> None:
        self._table: Dict[Hashable, Dict[int, float]] = {
            obs: dict(row) for obs, row in table.items()
        }
        self._default_uniform = default_uniform

    def likelihood(self, observation) -> Mapping[int, float]:
        row = self._table.get(observation)
        if row is None:
            if self._default_uniform or observation is None:
                return {}
            raise InferenceError(f"unknown observation symbol: {observation!r}")
        return row


class HiddenMarkovModel:
    """A discrete HMM over integer state ids.

    Parameters
    ----------
    num_states:
        Size of the hidden state space (ids ``0 .. num_states-1``).
    initial:
        Prior distribution over the initial hidden state.
    transition:
        Sparse transition CPT; every state reachable by ``initial`` or a
        transition must have a row.
    emission:
        An :class:`EmissionModel`.
    """

    def __init__(
        self,
        num_states: int,
        initial: SparseDistribution,
        transition: CPT,
        emission: EmissionModel,
    ) -> None:
        if num_states <= 0:
            raise InferenceError("num_states must be positive")
        if not initial.is_normalized(tol=1e-6):
            raise InferenceError(
                f"initial distribution mass {initial.total_mass:.6f} != 1"
            )
        for state in initial.support():
            if not 0 <= state < num_states:
                raise InferenceError(f"initial state {state} out of range")
        if not transition.is_stochastic(tol=1e-6):
            raise InferenceError("transition CPT rows must each sum to 1")
        self.num_states = num_states
        self.initial = initial
        self.transition = transition
        self.emission = emission

    # ------------------------------------------------------------------
    def evidence_vector(self, observation) -> Optional[SparseDistribution]:
        """Likelihoods as a sparse vector, or ``None`` if uninformative."""
        row = self.emission.likelihood(observation)
        if not row:
            return None
        vec = SparseDistribution(row)
        if not vec:
            return None
        return vec

    def simulate(self, length: int, rng) -> Sequence[int]:
        """Sample a hidden state trajectory of the given length."""
        if length <= 0:
            raise InferenceError("length must be positive")
        path = [_sample(self.initial, rng)]
        for _ in range(length - 1):
            row = self.transition.row(path[-1])
            if not row:
                raise InferenceError(f"state {path[-1]} has no outgoing transitions")
            path.append(_sample(row, rng))
        return path


def _sample(dist: SparseDistribution, rng) -> int:
    """Draw one state from a sparse distribution using ``rng.random()``."""
    u = rng.random() * dist.total_mass
    acc = 0.0
    last = None
    for state, p in dist.items():
        acc += p
        last = state
        if u <= acc:
            return state
    if last is None:
        raise InferenceError("cannot sample from an empty distribution")
    return last
