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

A stream holds arrays only: its marginals as one
:class:`~repro.probability.MarginalBlock` (CSR offsets, states and
probabilities, each marginal's entries in the order its producer gave
them) and its CPTs as one :class:`~repro.probability.CPTBlock`. The
synthetic generators build both directly (:meth:`MarkovianStream.from_arrays`),
and the archive encodes and indexes them without a per-timestep object.
The dict-row constructor gathers :class:`SparseDistribution` and
:class:`CPT` objects into the blocks once (the tests, ``serde`` and the
HMM smoother use it). :attr:`MarkovianStream.marginals` and
:attr:`MarkovianStream.cpts` are read-only sequence views that build
those objects on access, so code written against lists of them keeps
working; the stream caches neither the objects nor any encoded record.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Callable

import numpy as np

from ..errors import StreamError
from ..probability import CPT, CPTBlock, MarginalBlock, SparseDistribution
from .schema import StateSpace

#: Tolerance for the consistency invariant check.
CONSISTENCY_TOL = 1e-6


class _View(Sequence):
    """A read-only sequence of objects built on access from a stream's
    arrays: supports ``len``, indexing, slicing (to a list), iteration,
    and equality with any sequence of equal items."""

    __slots__ = ("_len", "_item")

    def __init__(self, length: int, item: Callable[[int], object]) -> None:
        self._len = length
        self._item = item

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self._item(i) for i in range(*t.indices(self._len))]
        t = operator.index(t)
        if t < 0:
            t += self._len
        if not 0 <= t < self._len:
            raise IndexError(f"index {t} out of range")
        return self._item(t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(other) == self._len and all(map(operator.eq, self, other))

    __hash__ = None


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
        self._adopt(name, space, MarginalBlock.of(marginals),
                    CPTBlock.of(cpts))
        if validate:
            self.validate(tol=tol)

    @classmethod
    def from_arrays(cls, name: str, space: StateSpace,
                    marginals: MarginalBlock,
                    cpts: CPTBlock) -> "MarkovianStream":
        """A stream over the given blocks, adopted as they are and not
        validated (call :meth:`validate` to check them)."""
        stream = cls.__new__(cls)
        stream._adopt(name, space, marginals, cpts)
        return stream

    def _adopt(self, name: str, space: StateSpace,
               marginals: MarginalBlock, cpts: CPTBlock) -> None:
        self.name = name
        self.space = space
        self.marginal_block = marginals
        self.cpt_block = cpts
        length = len(marginals.offsets) - 1
        if length < 1:
            raise StreamError("a stream needs at least one timestep")
        if cpts.steps != length - 1:
            raise StreamError(
                f"{length} marginals need {length - 1} CPTs, "
                f"got {cpts.steps}"
            )
        #: Timestep count: mirrors :attr:`StreamReader.length`, so code
        #: (``build_mc``) can take either a stream or a reader.
        self.length = length
        #: Per step, its first CPT row, and per CPT row, its first entry
        #: (each with the end appended; a marginal's are its offsets).
        self._row_at = np.searchsorted(cpts.step, np.arange(cpts.steps + 1))
        self._cell_at = np.concatenate(
            ([0], np.cumsum(cpts.row_len, dtype=np.int64)))
        self._marginals = _View(length, self._marginal)
        self._cpts = _View(length - 1, self._cpt)

    @property
    def marginals(self) -> _View:
        """The marginals as a read-only sequence of
        :class:`SparseDistribution`, built on access."""
        return self._marginals

    @property
    def cpts(self) -> _View:
        """The CPTs as a read-only sequence of :class:`CPT`, built on
        access; ``cpts[t]`` maps timestep ``t`` to ``t + 1``."""
        return self._cpts

    def _marginal(self, t: int) -> SparseDistribution:
        block = self.marginal_block
        lo, hi = block.offsets[t:t + 2]
        return SparseDistribution.wrap(dict(zip(
            block.states[lo:hi].tolist(), block.probs[lo:hi].tolist())))

    def _cpt(self, t: int) -> CPT:
        r0, r1 = self._row_at[t:t + 2]
        e0, e1 = self._cell_at[[r0, r1]]
        block = self.cpt_block
        return CPT.from_arrays((block.src[r0:r1], block.row_len[r0:r1],
                                block.dst[e0:e1], block.val[e0:e1]))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def marginal(self, t: int) -> SparseDistribution:
        if not 0 <= t < self.length:
            raise StreamError(f"timestep {t} out of range")
        return self._marginal(t)

    def cpt(self, t: int) -> CPT:
        """The CPT from timestep ``t`` to ``t + 1``."""
        if not 0 <= t < self.length - 1:
            raise StreamError(f"no CPT out of timestep {t}")
        return self._cpt(t)

    def cpt_into(self, t: int) -> CPT:
        """The CPT from timestep ``t - 1`` into ``t`` (t >= 1) — the
        orientation the archive stores and Reg consumes."""
        if t < 1:
            raise StreamError("no CPT into timestep 0")
        return self.cpt(t - 1)

    def scan_cpts(self, start: int, stop: int) -> CPTBlock:
        """The CPTs into ``start .. stop - 1`` (1 <= start < stop) as
        one block, sliced from the stream's (the read
        :meth:`StreamReader.scan_cpts
        <repro.streams.archive.StreamReader.scan_cpts>` makes)."""
        if not 1 <= start < stop <= self.length:
            raise StreamError(
                f"no CPTs into timesteps {start} .. {stop - 1} of a "
                f"stream of length {self.length}")
        r0, r1 = self._row_at[[start - 1, stop - 1]]
        e0, e1 = self._cell_at[[r0, r1]]
        block = self.cpt_block
        return CPTBlock(stop - start, block.step[r0:r1] - (start - 1),
                        block.src[r0:r1], block.row_len[r0:r1],
                        block.dst[e0:e1], block.val[e0:e1])

    # ------------------------------------------------------------------
    def validate(self, tol: float = CONSISTENCY_TOL) -> None:
        """Raise :class:`StreamError` unless every marginal is normalized
        over the space and the consistency invariant holds."""
        n = len(self.space)
        marginals = list(self.marginals)
        for t, marginal in enumerate(marginals):
            if any(not 0 <= s < n for s in marginal.support()):
                raise StreamError(
                    f"marginal at t={t} has states outside the space"
                )
            if abs(marginal.total_mass - 1.0) > tol:
                raise StreamError(
                    f"marginal at t={t} has mass {marginal.total_mass:.9f}"
                )
        for t, cpt in enumerate(self.cpts):
            pushed = cpt.apply(marginals[t])
            if not pushed.approx_equal(marginals[t + 1], tol=tol):
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
        if start < 0 or start + len(sets) > self.length:
            raise StreamError(
                f"interval [{start}, {start + len(sets)}) out of range"
            )
        current = self._marginal(start).restrict_to(sets[0])
        for offset, states in enumerate(sets[1:], start=1):
            if not current:
                return 0.0
            cpt = self._cpt(start + offset - 1)
            current = cpt.apply(current).restrict_to(states)
        return current.total_mass

    def __repr__(self) -> str:
        return (
            f"MarkovianStream({self.name!r}, length={len(self)}, "
            f"states={len(self.space)})"
        )
