"""Index construction and opening helpers.

These functions tie the index classes to a storage environment and the
stream archive. The Caldera engine calls them and records the built
indexes in the catalog; they are also usable standalone (see the tests
and benchmarks, which build indexes directly).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..errors import CatalogError
from ..query.predicates import Predicate
from ..storage import StorageEnvironment
from ..streams.archive import StreamReader
from ..streams.schema import StateSpace
from . import btc, btp
from .base import (
    ValueIndex,
    ValueStats,
    index_tree_name,
    mc_tree_name,
    resolve_indexed_attribute,
)
from .mc import MCIndex

#: Each index kind's ``entry(code, t, p) -> (key, value)`` encoder.
ENTRY_ENCODERS = {"btc": btc.entry, "btp": btp.entry}


def build_value_indexes(
    env: StorageEnvironment,
    stream_name: str,
    space: StateSpace,
    indexed_attr: str,
    marginals: Iterable[Tuple[int, "SparseDistribution"]],
    kinds: Sequence[str],
    dimensions: Optional[Dict[str, Dict]] = None,
    pack: int = 1,
) -> Dict[str, ValueIndex]:
    """Build the ``kinds`` (``btc``/``btp``) indexes over one indexed
    attribute from one aggregation pass over the marginals.

    Each kind bulk-loads the same ``(code, time, prob)`` entries, sorted
    by its own key order, and every built index carries the entries'
    :class:`ValueStats` (``pack`` is the archive's frame size), counted
    from the same pass.
    """
    names = {kind: index_tree_name(stream_name, kind, indexed_attr)
             for kind in kinds}
    for name in names.values():
        if env.exists(name):
            raise CatalogError(f"index {name!r} already exists")
    indexed = resolve_indexed_attribute(space, indexed_attr, dimensions)
    entries = [
        (indexed.code(value), t, prob)
        for t, marginal in marginals
        for value, prob in indexed.aggregate(marginal).items()
    ]
    stats = ValueStats.count(((code, t) for code, t, _ in entries),
                             indexed.codes(), pack)
    built = {}
    for kind, name in names.items():
        encode = ENTRY_ENCODERS[kind]
        items = sorted((encode(*e) for e in entries), key=lambda kv: kv[0])
        tree = env.open_tree(name)
        tree.bulk_load(items)
        tree.flush()
        built[kind] = ValueIndex(tree, indexed, stats)
    return built


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
    return ValueIndex(env.open_tree(name, create=False), indexed, stats)


def build_mc(
    env: StorageEnvironment,
    stream_name: str,
    reader: StreamReader,
    alpha: int = 2,
    predicate: Optional[Predicate] = None,
    space: Optional[StateSpace] = None,
) -> MCIndex:
    """Build the MC index (or a predicate-conditioned variant).

    The build runs under an ``mc.build`` span on the environment's
    tracer (wall time + page-write delta land in the environment
    registry), and the records it writes are counted in that registry's
    ``mc.records_built`` counter.
    """
    signature = predicate.signature() if predicate is not None else None
    name = mc_tree_name(stream_name, signature)
    if env.exists(name):
        raise CatalogError(f"index {name!r} already exists")
    accept = None
    if predicate is not None:
        if space is None:
            raise CatalogError("conditioned MC index needs the state space")
        accept = predicate.matching_states(space)
    index = MCIndex(env.open_tree(name), alpha, reader.length,
                    accept_states=accept)
    with env.tracer().span("mc.build", tree=name, alpha=alpha,
                           conditioned=predicate is not None):
        records = index.build(reader)
    env.metrics.counter("mc.records_built", tree=name).inc(records)
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
