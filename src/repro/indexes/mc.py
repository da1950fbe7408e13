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
:meth:`MCIndex.build` makes every level the same way, from the encoded
records of the level below — level 0 is the base CPT records, read in
timestep order. Per chunk of a multiple of ``alpha`` records (sized by
:data:`~repro.probability.cpt.BLOCK_FLOATS`) it decodes them as one
block, densifies it into a ``(chunk, n, n)`` stack, multiplies each run
of ``alpha`` in one batched product
``stack[0::alpha] @ stack[1::alpha] @ …``, and encodes the nonzero
entries back into records, a chunk at a time.

Gap traversal
-------------
:meth:`MCIndex.compute_cpt` covers an arbitrary ``[start, end)`` span
by greedy descent: at each position it takes the *largest* stored span
that is aligned at the position and still fits before ``end``, falling
back to a raw per-timestep CPT record from the archive when only levels
below ``min_level`` would fit (``min_level`` reproduces Fig 11(a)'s
level-omission experiment; raw level-0 steps always remain available).
Both sides of the canonical decomposition use at most ``alpha - 1``
pieces per level, so the piece count is bounded by
``2 * (alpha - 1) * ceil(log_alpha g)`` and grows logarithmically in
the gap; ``tests/indexes/test_mc_costs.py`` pins the exact constants.
The pieces come back in order as one decoded
:class:`~repro.probability.CPTBlock`; Reg applies them one after
another, so only :meth:`MCIndex.build` multiplies. The index keeps no
counters of its own: a traversal adds its lookups and raw base CPTs to
the caller's :class:`MCLookupStats` (a query's
``AccessStats.mc_lookups``), so each cost is counted once.

Conditioned variant (§3.3.2)
----------------------------
A conditioned MC index is built for one positive Kleene-loop
predicate: every base CPT is first masked to destinations inside the
predicate's accept set (level 1's dense stack times a 0/1 destination
mask), then multiplied.
Masking commutes with composition — masking the destination of one
piece masks the interior state of the concatenation — so span records
store the fully-masked product and arbitrary spans chain exactly.
:meth:`MCIndex.compute_conditioned_cpt` returns the pieces that cross
one maximal Kleene run ``start -> end``: the masked pieces of the run's
*interior* (``start+1 .. end-1``) followed by the raw, unmasked final
step into ``end`` — the boundary timestep is a real query event whose
symbol the Reg operator classifies (loop continues, link advances, or
match dies), so it must not be conditioned away. Masking is
idempotent, so the whole interior is masked at once. The product is
deliberately *sub*-stochastic: the lost row mass is exactly the
probability of leaving the loop — what
:meth:`repro.lahar.reg.Reg.update_loop_span` needs to split kept and
exited mass in one update.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import CatalogError, StreamError
from ..probability import CPTBlock, decode_block, encode_block
from ..probability.cpt import (BLOCK_FLOATS, RECORD_VERSION,
                               check_record_version, densify, sparsify)
from ..storage import encode_key

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

    @property
    def is_conditioned(self) -> bool:
        return self.accept_states is not None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, reader) -> int:
        """Bulk-load every span record from the archived stream.

        Each level's records are the products of ``alpha`` consecutive
        records of the level below; level 0 is the base CPT records, so
        the archive is read once. Returns the number of span records
        written.
        """
        if reader.length != self.length:
            raise CatalogError(
                f"MC index built for length {self.length} over a reader "
                f"of length {reader.length}"
            )
        n = len(reader.space)
        items: List[Tuple[bytes, bytes]] = [(META_KEY, self._meta_value())]
        below: Iterable[bytes] = (reader.cpt_record(t)
                                  for t in range(1, self.length))
        keep = None
        if self.accept_states is not None:
            keep = np.zeros(n)
            keep[[s for s in self.accept_states if s < n]] = 1.0
        span = 1
        for level in range(1, self.max_level + 1):
            span *= self.alpha
            below = list(_products(below, self.alpha, n,
                                   keep if level == 1 else None))
            items.extend((encode_key((level, i * span)), data)
                         for i, data in enumerate(below))
        self.tree.bulk_load(items)
        self.tree.flush()
        return len(items) - 1

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
                    stats: Optional[MCLookupStats] = None) -> CPTBlock:
        """The pieces spanning ``start -> end``, in order, as one block:
        index records, plus raw CPT records below ``min_level``."""
        if self.is_conditioned:
            raise CatalogError(
                "this MC index is conditioned; use compute_conditioned_cpt"
            )
        return decode_block(self._records(start, end, reader, min_level,
                                          stats))

    def compute_conditioned_cpt(self, start: int, end: int, reader, *,
                                min_level: int = 1,
                                stats: Optional[MCLookupStats] = None,
                                ) -> CPTBlock:
        """The pieces crossing one conditioned Kleene run ``start ->
        end`` (§3.3.2) as one block: the interior's (into ``start+1 ..
        end-1``) masked to the accept states, then the final step into
        ``end`` unmasked (Reg classifies the boundary event's symbol)."""
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
        # Read before the interior: a packed frame cache prices order.
        final = reader.cpt_record(end)
        if stats is not None:
            stats.base_cpts_read += 1
        if end - start == 1:
            return decode_block([final])
        block = decode_block(self._records(start, end - 1, reader,
                                           min_level, stats) + [final])
        interior = int(block.row_len[block.step < block.steps - 1].sum())
        val = block.val.copy()
        keep = np.zeros(max(self.accept_states, default=-1) + 2, bool)
        keep[list(self.accept_states)] = True  # larger ids clip to keep[-1]
        val[:interior] *= keep[np.minimum(block.dst[:interior], len(keep) - 1)]
        return block._replace(val=val)

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


def _products(records: Iterable[bytes], alpha: int, n: int,
              keep: Optional[np.ndarray]) -> Iterator[bytes]:
    """The record of the product of each run of ``alpha`` consecutive
    ``records``, destinations first masked by ``keep`` when given; a
    short run at the end is read and dropped."""
    chunk = max(1, BLOCK_FLOATS // (n * n) // alpha) * alpha
    buf = np.empty(chunk * n * n)
    records = iter(records)
    while True:
        batch = list(islice(records, chunk))
        runs = len(batch) // alpha
        if runs:
            (stack,) = densify(decode_block(batch[:runs * alpha]), n, buf)
            if keep is not None:
                stack *= keep
            stack = stack.reshape(runs, alpha, n, n).swapaxes(0, 1)
            yield from encode_block(sparsify(reduce(np.matmul, stack)))
        if len(batch) < chunk:
            return
