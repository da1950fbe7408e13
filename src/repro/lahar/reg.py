"""The Reg operator: per-timestep Regular-query match probability (§3).

Reg runs a Regular query's linear NFA over a Markovian stream and
emits, at every consumed timestep ``t``, the probability that a match
*ends* at ``t``. Exactness comes from determinization: a concrete
state path visits, at each timestep, a well-defined *set* of NFA
states (subset construction over the linear NFA of
:mod:`repro.query.regular`, with the start state always present — a
match may begin anywhere). Reg therefore partitions the stream's
probability mass by ``(NFA state set, stream state)`` and pushes that
joint mass through each timestep's CPT; the emitted probability is the
total mass in sets containing the accept state. No path is counted
twice, because the set is a deterministic function of the path.

:class:`Reg` is the kernel, in fixed product-space coordinates. The
DFA sets a query can ever occupy over a space are few and known up
front, so construction enumerates all ``R`` of them once and
precomputes, as flat ``bincount`` indices, where each ``(set, stream
state)`` cell's mass goes next. The joint mass is then a dense
``R × n`` matrix ``V`` for the kernel's whole life, and one timestep is
``V @ B`` plus one ``bincount`` — no per-step classification, and
Python cost independent of the query. Every CPT input is a
:class:`~repro.probability.CPTBlock`, densified by one scatter into a
reused ``(K, n, n)`` stack (:func:`~repro.probability.cpt.densify`, the
one the MC index build uses too). Reg also supports the span operations of
Algorithms 4 & 5: collapsing over irrelevant gaps (only the start state
and negated-loop states survive a timestep with zero mass on every
indexable predicate) by applying the MC pieces in order,
``V·(B₁…B_p) = ((V·B₁)·B₂)…·B_p``, conditioned loop spans, and the
independence approximation. Its pure-Python oracle is
``tests/reference_reg.py``.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..probability import CPT, CPTBlock, SparseDistribution
from ..probability.cpt import BLOCK_FLOATS, densify
from ..query.predicates import Not, Predicate
from ..query.regular import RegularQuery
from ..streams.schema import StateSpace


class QueryMachine:
    """A Regular query compiled against a state space: per-stream-state
    symbol masks and the cached subset-construction transition.

    NFA states are ``0 .. n`` (state q = "first q links matched");
    a DFA state is a bitmask of NFA states with bit 0 always set.
    The accept bit ``n`` has no outgoing transitions, so acceptance
    expires after one step — exactly "a match ends here".
    """

    def __init__(self, query: RegularQuery, space: StateSpace) -> None:
        self.query = query
        self.space = space
        self.n = len(query)

        predicates: List[Predicate] = []
        bit_of: Dict[str, int] = {}

        def bit_for(predicate: Predicate) -> int:
            sig = predicate.signature()
            if sig not in bit_of:
                bit_of[sig] = len(predicates)
                predicates.append(predicate)
            return bit_of[sig]

        self._link_bits = [bit_for(link.predicate) for link in query.links]
        #: per NFA state q: (predicate bit, negated) of its self-loop.
        self._loop_specs: List[Optional[Tuple[int, bool]]] = []
        for link in query.links:
            if link.loop is None:
                self._loop_specs.append(None)
            elif isinstance(link.loop, Not):
                self._loop_specs.append((bit_for(link.loop.base), True))
            else:
                self._loop_specs.append((bit_for(link.loop), False))

        self.state_mask = [0] * len(space)
        for bit, predicate in enumerate(predicates):
            for s in predicate.matching_states(space):
                self.state_mask[s] |= 1 << bit

        self.start_set = 1  # {NFA state 0}
        self.accept_bit = 1 << self.n
        # NFA states that survive an irrelevant timestep (zero mass on
        # every indexable predicate): the start state, and any state
        # whose self-loop is a *negated* predicate — trivially satisfied
        # when the base predicate has zero mass.
        keep = 1
        for q, spec in enumerate(self._loop_specs):
            if spec is not None and spec[1]:
                keep |= 1 << q
        self._collapse_mask = keep
        self._delta: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def mask_of(self, state_id: int) -> int:
        return self.state_mask[state_id]

    def step(self, set_bits: int, mask_bits: int) -> int:
        """The successor DFA state after consuming a symbol with the
        given predicate mask (cached)."""
        key = (set_bits, mask_bits)
        out = self._delta.get(key)
        if out is None:
            out = 1
            for q in range(self.n):
                if set_bits >> q & 1:
                    if mask_bits >> self._link_bits[q] & 1:
                        out |= 1 << (q + 1)
                    spec = self._loop_specs[q]
                    if spec is not None and \
                            bool(mask_bits >> spec[0] & 1) != spec[1]:
                        out |= 1 << q
            self._delta[key] = out
        return out

    def collapse(self, set_bits: int) -> int:
        """The DFA state surviving a gap of irrelevant timesteps."""
        return (set_bits & self._collapse_mask) | 1

    def is_accepting(self, set_bits: int) -> bool:
        return bool(set_bits & self.accept_bit)


# ----------------------------------------------------------------------
# Vectorized kernel
# ----------------------------------------------------------------------
class Reg:
    """The NumPy-vectorized Reg kernel (the production implementation).

    Construction fixes the coordinates: row ``r`` of the mass matrix
    ``V`` is the ``r``-th DFA set the query can occupy, column ``y`` a
    stream state, and every update scatters ``R × n`` mass through a
    precomputed flat successor index. A kernel that was never
    initialized holds zero mass and emits 0.0."""

    def __init__(self, query: RegularQuery, space: StateSpace,
                 machine: Optional[QueryMachine] = None) -> None:
        self.query = query
        self.space = space
        self._m = m = machine if machine is not None else \
            QueryMachine(query, space)
        #: Number of update operations performed since construction.
        self.updates_performed = 0
        self._n = n = len(space)
        #: Most steps one scatter densifies: the walk's block size.
        self.block_steps = max(1, BLOCK_FLOATS // (n * n))
        #: The dense transition stack, reused by every scatter.
        self._block = np.empty(self.block_steps * n * n)
        mask_arr = np.asarray(m.state_mask, dtype=np.int64)
        masks, group_of = np.unique(mask_arr, return_inverse=True)
        # Every DFA set the kernel can occupy: the closure of the start
        # set under a step on each distinct symbol mask, the gap
        # collapse, and the loop-span "kept" image collapse(s) | bit q.
        sets = [m.start_set]
        row_of = {m.start_set: 0}
        for s in sets:  # grows while iterating: a breadth-first closure
            mid = m.collapse(s)
            images = [m.step(s, int(mv)) for mv in masks] + [mid] + [
                mid | 1 << q for q in range(m.n) if s >> q & 1]
            for t in images:
                if t not in row_of:
                    row_of[t] = len(sets)
                    sets.append(t)
        self._rows = len(sets)
        cols = np.arange(n, dtype=np.int64)
        dst = np.asarray([[row_of[m.step(s, int(mv))] for mv in masks]
                          for s in sets], dtype=np.int64)
        #: Flat bincount index of each cell's successor after one step.
        self._succ = dst[:, group_of] * n + cols
        collapse = np.asarray([row_of[m.collapse(s)] for s in sets],
                              dtype=np.int64)
        #: Flat index folding each row into its gap-collapsed row.
        self._fold_flat = collapse[:, None] * n + cols
        #: Successor index for mass that crossed a gap (collapse, step).
        self._gap_succ = self._succ[collapse]
        #: Per loop state q: the rows holding q, and the successor
        #: index of their "kept" mass (collapsed set plus q).
        self._loops: List[Tuple[np.ndarray, np.ndarray]] = []
        for q in range(m.n):
            rows = [r for r, s in enumerate(sets) if s >> q & 1]
            kept = [row_of[m.collapse(sets[r]) | 1 << q] for r in rows]
            self._loops.append((np.asarray(rows, dtype=np.int64),
                                self._succ[np.asarray(kept, dtype=np.int64)]))
        self._start = self._succ[row_of[m.start_set]]
        #: 1.0 on each cell of an accepting row (a dot product with V).
        self._accept = np.repeat(
            np.asarray([m.is_accepting(s) for s in sets], dtype=float), n)
        self._V = np.zeros((self._rows, n))

    # -- state helpers -------------------------------------------------
    def _bin(self, flat: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Sum the mass ``W`` into a fresh ``V`` at flat indices."""
        return np.bincount(flat.ravel(), W.ravel(), self._rows * self._n
                           ).reshape(self._rows, self._n)

    def _fold(self) -> None:
        """Merge rows into their gap-collapsed DFA states."""
        self._V = self._bin(self._fold_flat, self._V)

    def _accept_mass(self) -> float:
        return float(self._V.ravel() @ self._accept)

    def _through(self, V: np.ndarray, block: CPTBlock) -> np.ndarray:
        """``V`` times the steps' matrices in order, ``V·B₁·…·B_p``."""
        for stack in densify(block, self._n, self._block):
            V = reduce(np.matmul, stack, V)
        return V

    def _scatter(self, marginal: SparseDistribution) -> np.ndarray:
        ids, vals = marginal.as_arrays()
        vec = np.zeros(self._n)
        vec[ids] = vals
        return vec

    # -- API -----------------------------------------------------------
    def initialize(self, marginal: SparseDistribution) -> float:
        """Start a fresh run on the first timestep's marginal; returns
        the match probability at that timestep."""
        self._V = self._bin(self._start, self._scatter(marginal))
        return self._accept_mass()

    def update(self, cpt: CPT) -> float:
        """Consume one timestep via its incoming CPT; returns the match
        probability at the new timestep."""
        src, lens, dst, val = cpt.arrays()
        block = CPTBlock(1, np.zeros(len(src), np.intp), src, lens, dst, val)
        return float(self.update_block(block)[0])

    def update_block(self, block: CPTBlock) -> np.ndarray:
        """Consume ``block.steps`` consecutive timesteps via their
        incoming CPTs; returns the match probability at each."""
        n = self._n
        self.updates_performed += block.steps
        V, succ, size = self._V, self._succ.ravel(), self._rows * n
        W = np.empty_like(V)
        W_flat, masses = W.ravel(), []
        for stack in densify(block, n, self._block):
            for B in stack:
                np.dot(V, B, W)
                V = np.bincount(succ, W_flat, size).reshape(-1, n)
                masses.append(V)
        self._V = V
        return np.concatenate(masses).reshape(block.steps, -1) @ self._accept

    def update_span(self, block: CPTBlock, span: int = 1) -> float:
        """Consume ``span`` timesteps whose interior is irrelevant
        (Algorithm 4's gap jump): fold, then apply the MC pieces."""
        self.updates_performed += 1
        if span > 1:
            self._fold()
        self._V = self._bin(self._succ, self._through(self._V, block))
        return self._accept_mass()

    def update_independent(self, marginal: SparseDistribution,
                           span: int = 1) -> float:
        """Consume a distant timestep under the independence
        approximation (Algorithm 5): each set's mass is redistributed
        by the new marginal."""
        self.updates_performed += 1
        if span > 1:
            self._fold()
        totals = self._V.sum(axis=1)
        self._V = self._bin(self._succ,
                            np.outer(totals, self._scatter(marginal)))
        return self._accept_mass()

    def update_loop_span(self, loop_state: int, plain: CPTBlock,
                         cond: CPTBlock, span: int = 1) -> float:
        """Cross a run of timesteps relevant only to a positive Kleene
        loop at NFA state ``loop_state`` (§3.3.2): mass that satisfied
        the loop predicate throughout (the ``cond`` pieces) keeps the
        loop state; the rest (``plain``) collapses like a plain gap."""
        self.updates_performed += 1
        rows, kept_succ = self._loops[loop_state]
        exited = self._through(self._V, plain)
        kept = self._through(self._V[rows], cond)
        exited[rows] = np.maximum(exited[rows] - kept, 0.0)
        self._V = self._bin(np.concatenate((self._gap_succ, kept_succ)),
                            np.concatenate((exited, kept)))
        return self._accept_mass()
