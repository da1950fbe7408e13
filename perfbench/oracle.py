"""The benchmark's answer oracle.

Expected answers come from the in-memory :class:`MarkovianStream` and
the pure-Python reference Reg: no storage, no record decoding, no NumPy
kernel. Answers are compared the way the differential test wall does
(``assert_signals_agree`` in ``tests/access/test_differential.py``).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Dict, List, Optional

#: Absolute tolerance on every compared probability.
TOL = 1e-9
#: Probabilities at or below this are treated as zero for coverage.
ZERO = 1e-12


def load_reference_reg(root: Path):
    """The pure-Python reference Reg class.

    It lives in ``repro.lahar.reg`` today; when it moves into the test
    tree, it is found there by its class definition instead.
    """
    try:
        from repro.lahar.reg import ReferenceReg
        return ReferenceReg
    except ImportError:
        pass
    for path in sorted((root / "tests").rglob("*.py")):
        if "class ReferenceReg" in path.read_text(encoding="utf-8"):
            spec = importlib.util.spec_from_file_location(
                "perfbench_reference_reg", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.ReferenceReg
    raise ImportError("no ReferenceReg in repro.lahar.reg or under tests/")


class Oracle:
    """Expected signals for one in-memory stream, computed lazily and
    cached per query text."""

    def __init__(self, stream, reference_reg, parse) -> None:
        self.stream = stream
        self._reference_reg = reference_reg
        self._parse = parse
        self._signals: Dict[str, Dict[int, float]] = {}
        self._relevant: Dict[str, List[int]] = {}

    def signal(self, text: str) -> Dict[int, float]:
        """The exact query signal at every timestep (a full reference
        scan: initialize on the first marginal, then every CPT)."""
        if text not in self._signals:
            stream = self.stream
            reg = self._reference_reg(self._parse(text), stream.space)
            out = {0: reg.initialize(stream.marginals[0])}
            for t, cpt in enumerate(stream.cpts, start=1):
                out[t] = reg.update(cpt)
            self._signals[text] = out
        return self._signals[text]

    def relevant(self, text: str) -> List[int]:
        """Timesteps with mass on any indexable predicate of the query:
        the relevant-event set the index-driven methods visit."""
        if text not in self._relevant:
            query = self._parse(text)
            states = frozenset().union(*(
                p.matching_states(self.stream.space)
                for p in query.indexable_predicates()))
            self._relevant[text] = [
                t for t, marginal in enumerate(self.stream.marginals)
                if marginal.mass_on(states) > 0.0
            ]
        return self._relevant[text]


def _mismatch(exact: Dict[int, float], emitted) -> Optional[str]:
    for t, p in emitted:
        want = exact.get(t, 0.0)
        if not abs(want - p) <= TOL:
            return f"t={t}: got {p!r}, oracle {want!r}"
    return None


def check_support(exact: Dict[int, float], emitted) -> Optional[str]:
    """Exact methods: every emitted value matches, and every nonzero
    oracle timestep is emitted."""
    bad = _mismatch(exact, emitted)
    if bad:
        return bad
    times = {t for t, _ in emitted}
    for t, p in exact.items():
        if p > ZERO and t not in times:
            return f"dropped nonzero timestep {t} (oracle {p!r})"
    return None


def check_topk(exact: Dict[int, float], emitted, k: int) -> Optional[str]:
    """Top-k: the emitted probabilities are the oracle's k best, and
    each emitted (t, p) matches the oracle at t."""
    got = sorted((p for _, p in emitted), reverse=True)
    best = sorted(exact.values(), reverse=True)[:k]
    if len(got) != len(best):
        return f"top-{k} returned {len(got)} answers, oracle has {len(best)}"
    for g, b in zip(got, best):
        if not abs(g - b) <= TOL:
            return f"top-{k} probabilities {got!r}, oracle {best!r}"
    return _mismatch(exact, emitted)


def check_emitted(exact: Dict[int, float], emitted) -> Optional[str]:
    """Conditioned MC (§3.3.2) emits loop-run boundaries only: the
    points it emits match, and it emits something when the oracle has
    signal."""
    if not emitted and any(p > ZERO for p in exact.values()):
        return "emitted nothing"
    return _mismatch(exact, emitted)


def check_semi(exact: Dict[int, float], relevant: List[int],
               emitted) -> Optional[str]:
    """The semi-independent method's three documented guarantees: its
    support is the relevant-event set, every value is a probability,
    and it is exact until the first gap of two or more timesteps."""
    times = [t for t, _ in emitted]
    if times != relevant:
        return (f"support of {len(times)} timesteps differs from the "
                f"{len(relevant)} relevant events")
    for t, p in emitted:
        if not -TOL <= p <= 1.0 + TOL:
            return f"t={t}: {p!r} is not a probability"
    prefix = []
    for i, (t, p) in enumerate(emitted):
        prefix.append((t, p))
        if i + 1 < len(emitted) and emitted[i + 1][0] - t > 1:
            break
    return _mismatch(exact, prefix)
