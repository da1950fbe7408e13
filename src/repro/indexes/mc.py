"""The Markov-chain (MC) index (§4.2.2, Algorithm 4).

The MC index precomputes chain-rule CPT products across power-of-alpha
spans so that a gap of ``g`` irrelevant timesteps costs
``O(log_alpha g)`` keyed lookups instead of ``g`` sequential CPT reads
— the piece that makes variable-length (Kleene) queries viable at
archive scale.

Record layout
-------------
One B+ tree per index, bulk-loaded bottom-up through the storage
engine. A record at key ``encode_key((level, start))`` stores the
composed CPT spanning ``start -> start + alpha**level``; records exist
for every level ``1 .. max_level`` at starts aligned to the level's
span (``start % alpha**level == 0``) whose span fits inside the stream
(``start + alpha**level <= length - 1``). ``max_level`` is the largest
level with at least one full span, so total storage is the geometric
series ``sum_l (L - 1) / alpha**l  <  (L - 1) / (alpha - 1)`` records.
A metadata record under the reserved key ``encode_key((-1,))`` (sorts
before every data key) makes the index self-describing: alpha, stream
length, level count, the conditioning accept set, and the CPT record
version (:func:`~repro.indexes.builder.open_mc` refuses any other).

Gap traversal
-------------
:meth:`MCIndex.compute_cpt` covers an arbitrary ``[start, end)`` span
by greedy descent: at each position it takes the *largest* stored span
that is aligned at the position and still fits before ``end``, falling
back to a raw per-timestep CPT read from the archive when only levels
below ``min_level`` would fit (``min_level`` reproduces Fig 11(a)'s
level-omission experiment; raw level-0 steps always remain available).
Both sides of the canonical decomposition use at most ``alpha - 1``
pieces per level, so the piece count is bounded by
``2 * (alpha - 1) * ceil(log_alpha g)`` and grows logarithmically in
the gap; ``tests/indexes/test_mc_costs.py`` pins the exact constants.
The index keeps no counters of its own: a traversal adds its lookups,
raw base CPTs and compositions to the caller's :class:`MCLookupStats`
(a query's ``AccessStats.mc_lookups``, filled by the gap rules of
:class:`repro.access.base.RegRun`), so each cost is counted once.

Conditioned variant (§3.3.2)
----------------------------
A conditioned MC index is built for one positive Kleene-loop
predicate: every base CPT is first masked to destinations inside the
predicate's accept set (``CPT.mask_destinations``), then composed.
Masking commutes with composition — masking the destination of one
piece masks the interior state of the concatenation — so span records
store the fully-masked product and arbitrary spans compose exactly.
:meth:`MCIndex.compute_conditioned_cpt` assembles the CPT that crosses
one maximal Kleene run ``start -> end``: masked records over the run's
*interior* (``start+1 .. end-1``) plus the raw, unmasked final step
into ``end`` — the boundary timestep is a real query event whose
symbol the Reg operator classifies (loop continues, link advances, or
match dies), so it must not be conditioned away. The result is
deliberately *sub*-stochastic: row mass is the probability of
satisfying the predicate at every interior timestep, and the lost mass
is exactly the probability of leaving the loop — what
:meth:`repro.lahar.reg.Reg.update_loop_span` needs to split kept and
exited mass in one update (:meth:`repro.access.base.RegRun.loop_span`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..errors import CatalogError, StreamError
from ..probability import CPT
from ..probability.cpt import RECORD_VERSION, check_record_version
from ..storage import encode_key

#: Reserved metadata key — level -1 sorts before every (level, start).
META_KEY = encode_key((-1,))


@dataclass
class MCLookupStats:
    """Counters for MC-index traversal during one query."""

    #: Stored span-CPT records fetched from the index.
    lookups: int = 0
    #: CPT compositions performed to cover a gap.
    compositions: int = 0
    #: Raw per-timestep CPTs read because no span record covered them.
    base_cpts_read: int = 0

    @property
    def pieces(self) -> int:
        """Total pieces composed to cover the gaps (index + raw)."""
        return self.lookups + self.base_cpts_read


def max_level_for(alpha: int, length: int) -> int:
    """The highest level with at least one full span: the largest
    ``l >= 1`` with ``alpha**l <= length - 1`` (0 when even the level-1
    span does not fit)."""
    level = 0
    span = alpha
    while span <= length - 1:
        level += 1
        span *= alpha
    return level


class MCIndex:
    """The MC index over one archived stream (plain or conditioned)."""

    def __init__(self, tree, alpha: int, length: int,
                 accept_states: Optional[FrozenSet[int]] = None) -> None:
        if alpha < 2:
            raise ValueError(f"MC index alpha must be >= 2, got {alpha}")
        self.tree = tree
        self.alpha = alpha
        self.length = length
        #: For conditioned variants: the loop predicate's matching states.
        self.accept_states = (
            None if accept_states is None else frozenset(accept_states)
        )
        self.max_level = max_level_for(alpha, length)

    @property
    def is_conditioned(self) -> bool:
        return self.accept_states is not None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, reader) -> int:
        """Bulk-load every span record from the archived stream.

        Level 1 is composed in one streaming pass over the base CPTs;
        each higher level composes ``alpha`` records of the level below
        (never re-reading the archive). Returns the number of span
        records written.
        """
        if reader.length != self.length:
            raise CatalogError(
                f"MC index built for length {self.length} over a reader "
                f"of length {reader.length}"
            )
        accept = self.accept_states
        items: List[Tuple[bytes, bytes]] = [(META_KEY, self._meta_value())]
        records = 0

        # Level 1: stream the base CPTs, emit one record per alpha steps.
        span = self.alpha
        level_cpts: Dict[int, CPT] = {}
        if self.max_level >= 1:
            acc: Optional[CPT] = None
            start = 0
            for t in range(1, reader.length):
                cpt = reader.cpt_into(t)
                if accept is not None:
                    cpt = cpt.mask_destinations(accept)
                acc = cpt if acc is None else acc.compose(cpt)
                if t == start + span:
                    level_cpts[start] = acc
                    acc = None
                    start = t
            for s in sorted(level_cpts):
                items.append((encode_key((1, s)), level_cpts[s].to_bytes()))
            records += len(level_cpts)

        # Levels 2 .. max_level: compose alpha spans of the level below.
        for level in range(2, self.max_level + 1):
            below = span
            span *= self.alpha
            higher: Dict[int, CPT] = {}
            for start in range(0, self.length - span, span):
                acc = level_cpts[start]
                for i in range(1, self.alpha):
                    acc = acc.compose(level_cpts[start + i * below])
                higher[start] = acc
            for s in sorted(higher):
                items.append((encode_key((level, s)), higher[s].to_bytes()))
            records += len(higher)
            level_cpts = higher

        self.tree.bulk_load(items)
        self.tree.flush()
        return records

    def _meta_value(self) -> bytes:
        meta = {
            "alpha": self.alpha,
            "length": self.length,
            "max_level": self.max_level,
            "conditioned": self.is_conditioned,
            "record": RECORD_VERSION,
        }
        if self.accept_states is not None:
            meta["accept_states"] = sorted(self.accept_states)
        return json.dumps(meta).encode("utf-8")

    def read_meta(self) -> Optional[dict]:
        """The stored metadata record (None on a never-built tree)."""
        data = self.tree.get(META_KEY)
        return None if data is None else json.loads(data.decode("utf-8"))

    def verify_meta(self) -> None:
        """Raise :class:`~repro.errors.CatalogError` when the stored
        metadata disagrees with how the index was opened."""
        meta = self.read_meta()
        if meta is None:
            return  # not built yet
        check_record_version(meta.get("record", 1),
                             f"MC index {self.tree.name!r}")
        mismatches = []
        if meta.get("alpha") != self.alpha:
            mismatches.append(f"alpha {meta.get('alpha')} != {self.alpha}")
        if meta.get("length") != self.length:
            mismatches.append(f"length {meta.get('length')} != {self.length}")
        if meta.get("conditioned", False) != self.is_conditioned:
            mismatches.append("conditioned/plain mismatch")
        if mismatches:
            raise CatalogError(
                f"MC index {self.tree.name!r} metadata mismatch: "
                + "; ".join(mismatches)
            )

    # ------------------------------------------------------------------
    # Gap traversal
    # ------------------------------------------------------------------
    def compute_cpt(self, start: int, end: int, reader, *,
                    min_level: int = 1,
                    stats: Optional[MCLookupStats] = None) -> CPT:
        """Compose the CPT spanning ``start -> end`` from index records
        (plus raw CPT reads below ``min_level``)."""
        if self.is_conditioned:
            raise CatalogError(
                "this MC index is conditioned; use compute_conditioned_cpt"
            )
        return self._compute(start, end, reader, min_level, stats,
                             masked=False)

    def compute_conditioned_cpt(self, start: int, end: int, reader, *,
                                min_level: int = 1,
                                stats: Optional[MCLookupStats] = None) -> CPT:
        """The CPT crossing one conditioned Kleene run ``start -> end``
        (§3.3.2): interior transitions (into ``start+1 .. end-1``)
        masked to the accept-state predicate, the final step into
        ``end`` unmasked (the boundary event's symbol is classified by
        Reg, so conditioning it away would drop loop exits). The result
        is sub-stochastic: lost row mass = probability of leaving the
        loop."""
        if not self.is_conditioned:
            raise CatalogError(
                "this MC index is not conditioned; build it with a "
                "predicate (conditioned_predicates=... on archive())"
            )
        if not 0 <= start < end <= self.length - 1:
            raise StreamError(
                f"MC span [{start}, {end}] outside stream of length "
                f"{self.length}"
            )
        final = reader.cpt_into(end)
        if stats is not None:
            stats.base_cpts_read += 1
        if end - start == 1:
            return final
        interior = self._compute(start, end - 1, reader, min_level, stats,
                                 masked=True)
        if stats is not None:
            stats.compositions += 1
        return interior.compose(final)

    def pieces(self, start: int, end: int,
               min_level: int = 1) -> Iterator[Tuple[int, int]]:
        """The greedy descent covering ``start -> end``: ``(level, at)``
        per piece, the stored record ``(level, at)`` or, for level 0, the
        raw CPT into ``at + 1``. Reads nothing."""
        if not 0 <= start < end <= self.length - 1:
            raise StreamError(
                f"MC span [{start}, {end}] outside stream of length "
                f"{self.length}"
            )
        min_level = max(1, min_level)
        cur = start
        while cur < end:
            level = self.max_level
            span = self.alpha ** level
            while level >= min_level and not (cur % span == 0
                                              and cur + span <= end):
                span //= self.alpha
                level -= 1
            if level < min_level:
                # Only levels below min_level (or none) fit: raw step.
                level, span = 0, 1
            yield level, cur
            cur += span

    def _compute(self, start: int, end: int, reader, min_level: int,
                 stats: Optional[MCLookupStats], masked: bool) -> CPT:
        result: Optional[CPT] = None
        lookups = base = 0
        for level, at in self.pieces(start, end, min_level):
            if level:
                piece = self._fetch(level, at)
                lookups += 1
            else:
                piece = reader.cpt_into(at + 1)
                if masked:
                    piece = piece.mask_destinations(self.accept_states)
                base += 1
            result = piece if result is None else result.compose(piece)
        if stats is not None:
            stats.lookups += lookups
            stats.base_cpts_read += base
            stats.compositions += lookups + base - 1
        return result

    def _fetch(self, level: int, start: int) -> CPT:
        data = self.tree.get(encode_key((level, start)))
        if data is None:
            raise CatalogError(
                f"MC index {self.tree.name!r} is missing record "
                f"(level={level}, start={start}); was it built?"
            )
        return CPT.from_bytes(data)
