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

Build
-----
:meth:`MCIndex.build` makes every level the same way, from the level
below it as a :class:`~repro.probability.CPTBlock`, and decodes no
record. Level 0 is the base CPTs (into timesteps ``1 .. length - 1``)
as one block: at archive time the stream's own block, so the build
reads no page (an index added to an archived stream reads the base
records once, through ``reader.scan_cpts``, and decodes them there).
Per chunk of a multiple of ``alpha`` steps (sized by
:data:`~repro.probability.cpt.BLOCK_FLOATS`) it densifies the block
below into a ``(chunk, n, n)`` stack, multiplies each run of ``alpha``
in one batched product ``stack[0::alpha] @ stack[1::alpha] @ …``, and
keeps the nonzero entries; the chunks' entries make the level's block,
which is encoded into records once and kept only until the next level
is built from it. Every record's ``(level, start)`` key comes from one
``encode_keys`` call, and the tree is bulk-loaded once.

Gap traversal
-------------
:meth:`MCIndex.span_records` covers an arbitrary ``[start, end)`` span
by greedy descent: at each position it takes the *largest* stored span
that is aligned at the position and still fits before ``end``, falling
back to a raw per-timestep CPT record from the archive when only levels
below ``min_level`` would fit (``min_level`` reproduces Fig 11(a)'s
level-omission experiment; raw level-0 steps always remain available).
Both sides of the canonical decomposition use at most ``alpha - 1``
pieces per level, so the piece count is bounded by
``2 * (alpha - 1) * ceil(log_alpha g)`` and grows logarithmically in
the gap; ``tests/indexes/test_mc_costs.py`` pins the exact constants.
The pieces come back in order as records, undecoded: the access
methods' walk (:meth:`~repro.access.base.RegRun.walk`) decodes them
with the rest of its window, once per window, and Reg applies them one
after another, so only :meth:`MCIndex.build` multiplies
(:meth:`MCIndex.compute_cpt` is the same pieces decoded as one
:class:`~repro.probability.CPTBlock`). The index keeps no counters of
its own: a traversal adds its lookups and raw base CPTs to the
caller's :class:`MCLookupStats` (a query's ``AccessStats.mc_lookups``),
so each cost is counted once.

Conditioned variant (§3.3.2)
----------------------------
A conditioned MC index is built for one positive Kleene-loop
predicate: every base CPT is first masked to destinations inside the
predicate's accept set (level 1's dense stack times a 0/1 destination
mask), then multiplied.
Masking commutes with composition — masking the destination of one
piece masks the interior state of the concatenation — so span records
store the fully-masked product and arbitrary spans chain exactly.
:meth:`MCIndex.loop_records` returns the pieces that cross one maximal
Kleene run ``start -> end``: the pieces of the run's *interior*
(``start+1 .. end-1``) followed by the raw final step into ``end``.
The caller masks the interior to the accept states as dense
destination columns (:meth:`MCIndex.accept_columns`), not the final
step — the boundary timestep is a real query event whose symbol the
Reg operator classifies (loop continues, link advances, or match
dies), so it must not be conditioned away. Masking is idempotent, so
the whole interior, raw steps included, is masked at once.
The product is
deliberately *sub*-stochastic: the lost row mass is exactly the
probability of leaving the loop — what
:meth:`repro.lahar.reg.Reg.update_loop_span` needs to split kept and
exited mass in one update.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import CatalogError, StreamError
from ..probability import CPTBlock, decode_block, encode_block
from ..probability.cpt import (BLOCK_FLOATS, RECORD_VERSION,
                               check_record_version, densify, sparsify)
from ..storage import encode_key
from ..storage.keyenc import encode_keys, key_list

#: Reserved metadata key — level -1 sorts before every (level, start).
META_KEY = encode_key((-1,))


@dataclass
class MCLookupStats:
    """Counters for MC-index traversal during one query."""

    #: Stored span-CPT records fetched from the index.
    lookups: int = 0
    #: Raw per-timestep CPTs read because no span record covered them.
    base_cpts_read: int = 0

    @property
    def pieces(self) -> int:
        """Total pieces that covered the gaps (index + raw)."""
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
        self._columns: Optional[np.ndarray] = None

    @property
    def is_conditioned(self) -> bool:
        return self.accept_states is not None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, base: CPTBlock, num_states: int) -> int:
        """Bulk-load every span record from ``base``, the CPTs into
        timesteps ``1 .. length - 1`` in order, of a stream over
        ``num_states`` states.

        Each level's block is the products of ``alpha`` consecutive
        steps of the level below, and level 0 is ``base``; the build
        reads no page and decodes no record. Returns the number of span
        records written.
        """
        if base.steps != self.length - 1:
            raise CatalogError(
                f"MC index built for length {self.length} from "
                f"{base.steps} CPTs (a stream of length {base.steps + 1})"
            )
        keep = None if self.accept_states is None else \
            self.accept_columns(num_states)
        levels: List[List[bytes]] = []
        below = base
        for level in range(1, self.max_level + 1):
            below = _products(below, self.alpha, num_states,
                              keep if level == 1 else None)
            levels.append(encode_block(below))
        keys = encode_keys((
            np.repeat(np.arange(1, len(levels) + 1),
                      [len(level) for level in levels]),
            np.concatenate([np.arange(len(level)) * self.alpha ** at
                            for at, level in enumerate(levels, 1)]
                           + [np.zeros(0, dtype=np.int64)]),
        ))
        self.tree.bulk_load(chain([(META_KEY, self._meta_value())],
                                  zip(key_list(keys),
                                      chain.from_iterable(levels))))
        return len(keys)

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
    def span_records(self, start: int, end: int, reader, *,
                     min_level: int = 1,
                     stats: Optional[MCLookupStats] = None) -> List[bytes]:
        """The records of the pieces spanning ``start -> end``, in order:
        index records, plus raw CPT records below ``min_level``."""
        if self.is_conditioned:
            raise CatalogError(
                "this MC index is conditioned; use loop_records"
            )
        return self._records(start, end, reader, min_level, stats)

    def compute_cpt(self, start: int, end: int, reader, *,
                    min_level: int = 1,
                    stats: Optional[MCLookupStats] = None) -> CPTBlock:
        """The pieces of :meth:`span_records`, decoded as one block."""
        return decode_block(self.span_records(start, end, reader,
                                              min_level=min_level,
                                              stats=stats))

    def loop_records(self, start: int, end: int, reader, *,
                     min_level: int = 1,
                     stats: Optional[MCLookupStats] = None) -> List[bytes]:
        """The records of the pieces crossing one conditioned Kleene run
        ``start -> end`` (§3.3.2), in order: the interior's (into
        ``start+1 .. end-1``), which the caller masks to the accept
        states (:meth:`accept_columns`), then the final step into
        ``end``, unmasked (Reg classifies the boundary event's symbol).
        The final step is read first: a packed frame cache prices order."""
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
        final = reader.cpt_record(end)
        if stats is not None:
            stats.base_cpts_read += 1
        if end - start == 1:
            return [final]
        return self._records(start, end - 1, reader, min_level,
                             stats) + [final]

    def compute_conditioned_cpt(self, start: int, end: int, reader, *,
                                min_level: int = 1,
                                stats: Optional[MCLookupStats] = None,
                                ) -> CPTBlock:
        """The pieces of :meth:`loop_records` as one block, the interior
        masked to the accept states."""
        block = decode_block(self.loop_records(start, end, reader,
                                               min_level=min_level,
                                               stats=stats))
        keep = self.accept_columns(int(block.dst.max(initial=0)) + 1)
        interior = np.repeat(block.step < block.steps - 1, block.row_len)
        return block._replace(
            val=block.val * np.where(interior, keep[block.dst], 1.0))

    def accept_columns(self, n: int) -> np.ndarray:
        """Over stream states ``0 .. n - 1``: 1.0 on the accept states,
        0.0 elsewhere (a dense piece times it is masked to them)."""
        if self._columns is None or len(self._columns) != n:
            self._columns = np.zeros(n)
            self._columns[[s for s in self.accept_states if s < n]] = 1.0
        return self._columns

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

    def _records(self, start: int, end: int, reader, min_level: int,
                 stats: Optional[MCLookupStats]) -> List[bytes]:
        """The stored records of :meth:`pieces`, in order."""
        records, lookups = [], 0
        for level, at in self.pieces(start, end, min_level):
            if level:
                lookups += 1
                data = self.tree.get(encode_key((level, at)))
                if data is None:
                    raise CatalogError(
                        f"MC index {self.tree.name!r} is missing record "
                        f"(level={level}, start={at}); was it built?"
                    )
            else:
                data = reader.cpt_record(at + 1)
            records.append(data)
        if stats is not None:
            stats.lookups += lookups
            stats.base_cpts_read += len(records) - lookups
        return records


def _products(block: CPTBlock, alpha: int, n: int,
              keep: Optional[np.ndarray]) -> CPTBlock:
    """The product of each run of ``alpha`` consecutive steps of
    ``block``, destinations first masked by ``keep`` when given, as one
    block; a short run at the end is dropped."""
    chunk = max(1, BLOCK_FLOATS // (n * n) // alpha) * alpha
    parts = [sparsify(np.zeros((0, n, n)))]
    for first, stack in zip(range(0, block.steps, chunk),
                            densify(block, n, np.empty(chunk * n * n))):
        runs = len(stack) // alpha
        if not runs:
            break
        if keep is not None:
            stack *= keep
        part = sparsify(reduce(np.matmul, stack[:runs * alpha].reshape(
            runs, alpha, n, n).swapaxes(0, 1)))
        parts.append(part._replace(step=part.step + first // alpha))
    fields = zip(*(part[1:] for part in parts))
    return CPTBlock(block.steps // alpha, *map(np.concatenate, fields))
