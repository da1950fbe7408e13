"""Index construction and opening helpers.

These functions tie the index classes to a storage environment and the
stream archive. The Caldera engine calls them and records the built
indexes in the catalog; they are also usable standalone (see the tests
and benchmarks, which build indexes directly).

Builds start from arrays. :func:`build_value_indexes` aggregates a
stream's CSR marginals (a :class:`~repro.probability.MarginalBlock`)
with one ``np.bincount``, and :func:`build_mc` hands
:meth:`MCIndex.build <repro.indexes.mc.MCIndex.build>` the base CPTs as
one :class:`~repro.probability.CPTBlock`: at archive time the stream's
own block, for an archived stream its records read and decoded once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CatalogError
from ..probability import MarginalBlock, decode_block
from ..query.predicates import Predicate
from ..storage import FixedRows, StorageEnvironment
from ..streams.archive import StreamReader
from ..streams.markovian import MarkovianStream
from ..streams.schema import StateSpace
from .base import (
    LAYOUTS,
    ValueIndex,
    ValueStats,
    index_tree_name,
    mc_tree_name,
    resolve_indexed_attribute,
)
from .mc import MCIndex


def build_value_indexes(
    env: StorageEnvironment,
    stream_name: str,
    space: StateSpace,
    indexed_attr: str,
    marginals: MarginalBlock,
    kinds: Sequence[str],
    dimensions: Optional[Dict[str, Dict]] = None,
    pack: int = 1,
) -> Dict[str, ValueIndex]:
    """Build the ``kinds`` (``btc``/``btp``) indexes over one indexed
    attribute from one aggregation pass over ``marginals``, a stream's
    marginals at timesteps ``0, 1, ...`` as CSR arrays.

    Each kind encodes the same ``(code, time, prob)`` entries into its
    own fixed-width rows, sorts them by key bytes and bulk-loads them;
    every built index carries the entries' :class:`ValueStats`
    (``pack`` is the archive's frame size), counted from the same pass.
    """
    names = {kind: index_tree_name(stream_name, kind, indexed_attr)
             for kind in kinds}
    for name in names.values():
        if env.exists(name):
            raise CatalogError(f"index {name!r} already exists")
    indexed = resolve_indexed_attribute(space, indexed_attr, dimensions)
    codes, times, probs = aggregate(indexed.state_codes(len(space)),
                                    marginals)
    stats = ValueStats.count(codes, times, indexed.codes(), pack)
    built = {}
    for kind, name in names.items():
        layout = LAYOUTS[kind]
        tree = env.open_tree(name)
        tree.bulk_load(_in_key_order(layout.encode(codes, times, probs),
                                     layout.KEY.size))
        built[kind] = ValueIndex(tree, indexed, kind, stats)
    return built


def aggregate(state_codes: np.ndarray, marginals: MarginalBlock
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value code and timestep, the summed marginal probability of
    the states ``state_codes`` maps to the code (states mapped to -1 are
    not indexed), as ``(codes, times, probs)`` arrays sorted by code,
    then time.

    Tuples at one timestep are disjoint, so summation is exact (§3.4.1).
    ``np.bincount`` adds each sum's terms from 0.0 in each marginal's
    own entry order.
    """
    offsets, states, probs = marginals
    codes = state_codes[states]
    kept = codes >= 0
    probs = probs[kept]
    times = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))[kept]
    if not len(times):
        return times, times, probs
    first = int(times.min())
    span = int(times.max()) - first + 1
    keys = codes[kept] * span + (times - first)
    # Free each array once it is used up: the build's peak memory is
    # every array alive at one time.
    del codes, times
    # Sorted as big-endian bytes (the keys are non-negative): the same
    # sort routine that orders the index keys.
    order = np.argsort(keys.astype(">i8").view("S8"))
    keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    slot = np.empty_like(order)
    slot[order] = np.cumsum(starts) - 1
    del order
    probs = np.bincount(slot, weights=probs)
    keys = keys[starts]
    return keys // span, keys % span + first, probs


def _in_key_order(rows: np.ndarray, key_width: int) -> FixedRows:
    """Sort ``rows`` (each ``key_width`` key bytes, then value bytes) in
    place by their bytes, which orders them by key since no two keys are
    equal, and hand them to the tree as they are."""
    rows.view(f"S{rows.shape[1]}").reshape(-1).sort()
    return FixedRows(rows, key_width)


def open_value_index(
    env: StorageEnvironment,
    stream_name: str,
    space: StateSpace,
    kind: str,
    indexed_attr: str,
    dimensions: Optional[Dict[str, Dict]] = None,
    stats: Optional[ValueStats] = None,
) -> ValueIndex:
    """Open an existing ``btc`` or ``btp`` index (``stats`` as recorded
    at build time, if known)."""
    name = index_tree_name(stream_name, kind, indexed_attr)
    indexed = resolve_indexed_attribute(space, indexed_attr, dimensions)
    return ValueIndex(env.open_tree(name, create=False), indexed, kind,
                      stats)


def build_mc(
    env: StorageEnvironment,
    stream_name: str,
    source: Union[MarkovianStream, StreamReader],
    alpha: int = 2,
    predicate: Optional[Predicate] = None,
) -> MCIndex:
    """Build the MC index (or a predicate-conditioned variant) of a
    stream, from the stream itself (as the archive does: its CPT block
    is level 0, and nothing is read) or from a reader over its archive
    (the base CPT records are read once and decoded as one block).

    The build runs under an ``mc.build`` span on the environment's
    tracer (its wall time lands in the environment registry);
    :meth:`MCIndex.build` returns the number of records written.
    """
    signature = predicate.signature() if predicate is not None else None
    name = mc_tree_name(stream_name, signature)
    if env.exists(name):
        raise CatalogError(f"index {name!r} already exists")
    accept = None if predicate is None else \
        predicate.matching_states(source.space)
    index = MCIndex(env.open_tree(name), alpha, source.length,
                    accept_states=accept)
    # A one-timestep stream has no CPT: its base is the empty block.
    base = source.scan_cpts(1, source.length) if source.length > 1 else \
        decode_block([])
    with env.tracer().span("mc.build", tree=name, alpha=alpha,
                           conditioned=predicate is not None):
        index.build(base, len(source.space))
    return index


def open_mc(
    env: StorageEnvironment,
    stream_name: str,
    alpha: int,
    length: int,
    predicate: Optional[Predicate] = None,
    space: Optional[StateSpace] = None,
) -> MCIndex:
    """Open an existing MC index (its stored metadata, when present,
    must agree with the requested alpha/length/conditioning)."""
    signature = predicate.signature() if predicate is not None else None
    name = mc_tree_name(stream_name, signature)
    accept = None
    if predicate is not None:
        if space is None:
            raise CatalogError("conditioned MC index needs the state space")
        accept = predicate.matching_states(space)
    index = MCIndex(env.open_tree(name, create=False), alpha, length,
                    accept_states=accept)
    index.verify_meta()
    return index
