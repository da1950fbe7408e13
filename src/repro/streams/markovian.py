"""The Markovian stream model (§2).

A Markovian stream of length ``L`` is a sequence of per-timestep
marginal distributions ``m_0 .. m_{L-1}`` plus pairwise correlations:
one CPT per adjacent timestep pair, ``C_t : state(t) -> state(t+1)``.
Together they determine every interval's joint distribution under the
Markov assumption:

    P(x_s .. x_e) = m_s(x_s) * prod_{t=s..e-1} C_t(x_{t+1} | x_t)

The representation is *consistent* when applying each CPT to its source
marginal reproduces the next marginal — ``C_t.apply(m_t) == m_{t+1}``
— which is the contract inference layers (``repro.hmm``) guarantee and
the archive round-trips bit-exactly.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import StreamError
from ..probability import CPT, SparseDistribution
from .schema import StateSpace

#: Tolerance for the consistency invariant check.
CONSISTENCY_TOL = 1e-6


class MarkovianStream:
    """An in-memory Markovian stream: marginals + pairwise CPTs.

    Parameters
    ----------
    name:
        Stream name (the archive key prefix).
    space:
        The state space marginals and CPTs are defined over.
    marginals:
        One :class:`SparseDistribution` per timestep.
    cpts:
        ``len(marginals) - 1`` CPTs; ``cpts[t]`` maps timestep ``t`` to
        ``t + 1``.
    validate:
        Check shape, normalization, and the consistency invariant at
        construction (pass ``False`` for streams built by construction,
        e.g. the smoother's output).
    """

    def __init__(
        self,
        name: str,
        space: StateSpace,
        marginals: Sequence[SparseDistribution],
        cpts: Sequence[CPT],
        validate: bool = True,
        tol: float = CONSISTENCY_TOL,
    ) -> None:
        self.name = name
        self.space = space
        self.marginals: List[SparseDistribution] = list(marginals)
        self.cpts: List[CPT] = list(cpts)
        if not self.marginals:
            raise StreamError("a stream needs at least one timestep")
        if len(self.cpts) != len(self.marginals) - 1:
            raise StreamError(
                f"{len(self.marginals)} marginals need "
                f"{len(self.marginals) - 1} CPTs, got {len(self.cpts)}"
            )
        if validate:
            self.validate(tol=tol)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.marginals)

    @property
    def length(self) -> int:
        """Timestep count — mirrors :attr:`StreamReader.length` so code
        can take either a stream or a reader."""
        return len(self.marginals)

    def marginal(self, t: int) -> SparseDistribution:
        if not 0 <= t < len(self.marginals):
            raise StreamError(f"timestep {t} out of range")
        return self.marginals[t]

    def cpt(self, t: int) -> CPT:
        """The CPT from timestep ``t`` to ``t + 1``."""
        if not 0 <= t < len(self.cpts):
            raise StreamError(f"no CPT out of timestep {t}")
        return self.cpts[t]

    def cpt_into(self, t: int) -> CPT:
        """The CPT from timestep ``t - 1`` into ``t`` (t >= 1) — the
        orientation the archive stores and Reg consumes."""
        if t < 1:
            raise StreamError("no CPT into timestep 0")
        return self.cpt(t - 1)

    # ------------------------------------------------------------------
    def validate(self, tol: float = CONSISTENCY_TOL) -> None:
        """Raise :class:`StreamError` unless every marginal is normalized
        over the space and the consistency invariant holds."""
        n = len(self.space)
        for t, marginal in enumerate(self.marginals):
            if any(not 0 <= s < n for s in marginal.support()):
                raise StreamError(
                    f"marginal at t={t} has states outside the space"
                )
            if abs(marginal.total_mass - 1.0) > tol:
                raise StreamError(
                    f"marginal at t={t} has mass {marginal.total_mass:.9f}"
                )
        for t, cpt in enumerate(self.cpts):
            pushed = cpt.apply(self.marginals[t])
            if not pushed.approx_equal(self.marginals[t + 1], tol=tol):
                raise StreamError(
                    f"inconsistent stream: C_{t}.apply(m_{t}) != m_{t + 1}"
                )

    # ------------------------------------------------------------------
    def interval_probability(
        self, start: int, state_sets: Sequence
    ) -> float:
        """P(x_start in S_0, x_start+1 in S_1, ...) for consecutive
        state sets — the joint probability of one concrete event
        pattern, evaluated by masked propagation (§2)."""
        sets = [frozenset(s) for s in state_sets]
        if not sets:
            return 0.0
        if start < 0 or start + len(sets) > len(self.marginals):
            raise StreamError(
                f"interval [{start}, {start + len(sets)}) out of range"
            )
        current = self.marginals[start].restrict_to(sets[0])
        for offset, states in enumerate(sets[1:], start=1):
            if not current:
                return 0.0
            cpt = self.cpts[start + offset - 1]
            current = cpt.apply(current).restrict_to(states)
        return current.total_mass

    def __repr__(self) -> str:
        return (
            f"MarkovianStream({self.name!r}, length={len(self)}, "
            f"states={len(self.space)})"
        )
