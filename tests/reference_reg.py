"""The pure-Python reference Reg: the oracle of the Reg kernel.

:class:`ReferenceReg` implements the semantics of
:class:`repro.lahar.Reg` (``repro/lahar/reg.py`` explains them) with
dicts of dicts and no NumPy: each occupied DFA set keeps a sparse mass
over stream states, and every step pays O(nnz) dict arithmetic per
set. It is kept slow and obvious on purpose; the property tests, the
Reg kernel benchmark and perfbench's answer oracle compare the kernel
against it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lahar import QueryMachine
from repro.probability import CPT, SparseDistribution
from repro.query.regular import RegularQuery
from repro.streams.schema import StateSpace


class ReferenceReg:
    """Dict-based reference implementation of Reg — same semantics as
    :class:`repro.lahar.Reg`, no NumPy."""

    def __init__(self, query: RegularQuery, space: StateSpace) -> None:
        self.query = query
        self.space = space
        self._m = QueryMachine(query, space)
        self.updates_performed = 0
        self._mass: Dict[int, Dict[int, float]] = {}

    # -- helpers -------------------------------------------------------
    def _accept_mass(self) -> float:
        return sum(
            sum(dist.values())
            for s, dist in self._mass.items() if self._m.is_accepting(s)
        )

    @staticmethod
    def _add(bucket: Dict[int, Dict[int, float]], s: int, x: int,
             p: float) -> None:
        row = bucket.setdefault(s, {})
        row[x] = row.get(x, 0.0) + p

    def _classify(self, propagated: List[Tuple[int, Dict[int, float]]]) \
            -> None:
        m = self._m
        new: Dict[int, Dict[int, float]] = {}
        for mid, dist in propagated:
            for y, p in dist.items():
                if p != 0.0:
                    self._add(new, m.step(mid, m.mask_of(y)), y, p)
        self._mass = new

    def _collapse(self) -> None:
        merged: Dict[int, Dict[int, float]] = {}
        for s, dist in self._mass.items():
            for x, p in dist.items():
                self._add(merged, self._m.collapse(s), x, p)
        self._mass = merged

    @staticmethod
    def _apply(cpt: CPT, dist: Dict[int, float]) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for x, px in dist.items():
            if x in cpt:
                for y, pr in cpt.row(x).items():
                    out[y] = out.get(y, 0.0) + px * pr
        return out

    # -- API -----------------------------------------------------------
    def initialize(self, marginal: SparseDistribution) -> float:
        m = self._m
        self._mass = {}
        for x, p in marginal.items():
            self._add(self._mass, m.step(m.start_set, m.mask_of(x)), x, p)
        return self._accept_mass()

    def update(self, cpt: CPT) -> float:
        self.updates_performed += 1
        self._classify(
            [(s, self._apply(cpt, dist)) for s, dist in self._mass.items()]
        )
        return self._accept_mass()

    def update_span(self, cpt: CPT, span: int = 1) -> float:
        if span > 1:
            self._collapse()
        return self.update(cpt)

    def update_independent(self, marginal: SparseDistribution,
                           span: int = 1) -> float:
        self.updates_performed += 1
        if span > 1:
            self._collapse()
        totals = {s: sum(d.values()) for s, d in self._mass.items()}
        self._classify([
            (s, {y: total * py for y, py in marginal.items()})
            for s, total in totals.items()
        ])
        return self._accept_mass()

    def update_loop_span(self, loop_state: int, plain: CPT, cond: CPT,
                         span: int = 1) -> float:
        self.updates_performed += 1
        m = self._m
        qbit = 1 << loop_state
        propagated: List[Tuple[int, Dict[int, float]]] = []
        for s, dist in self._mass.items():
            mid = m.collapse(s)
            if s & qbit:
                kept = self._apply(cond, dist)
                full = self._apply(plain, dist)
                exited = {
                    y: max(full.get(y, 0.0) - kept.get(y, 0.0), 0.0)
                    for y in full
                }
                propagated.append((mid | qbit, kept))
                propagated.append((mid, exited))
            else:
                propagated.append((mid, self._apply(plain, dist)))
        self._classify(propagated)
        return self._accept_mass()
