"""Shared machinery for secondary indexes.

An *indexed attribute* is either a base stream attribute (``location``)
or a star-schema join attribute (``location/LocationType`` — the
attribute's value mapped through a dimension table, §3.4.1). Both kinds
index, per timestep, the summed marginal probability of each attribute
value; a join index thereby materializes the paper's
``(D.a, M.time)`` / ``(D.a, M.prob)`` search keys without modifying the
stream.

Tree naming: ``{stream}__btc__{attr}`` and ``{stream}__btp__{attr}``
with ``/`` sanitized to ``@`` for the filesystem.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import CatalogError, QueryError
from ..probability import SparseDistribution
from ..streams.schema import StateSpace

JOIN_SEPARATOR = "/"


class IndexedAttribute:
    """Resolves attribute values and their integer key codes for one
    (possibly dimension-joined) indexed attribute."""

    def __init__(
        self,
        name: str,
        value_of_state: Callable[[int], object],
        codes: Dict[object, int],
    ) -> None:
        self.name = name
        self._value_of_state = value_of_state
        self._codes = codes

    # ------------------------------------------------------------------
    @classmethod
    def base(cls, space: StateSpace, attribute: str) -> "IndexedAttribute":
        """Index directly on a stream attribute's values."""
        vocab = space.vocabulary(attribute)

        def value_of(state_id: int):
            return space.attribute_value(state_id, attribute)

        codes = {v: vocab.code(v) for v in vocab.values()}
        return cls(attribute, value_of, codes)

    @classmethod
    def joined(
        cls,
        space: StateSpace,
        attribute: str,
        table_name: str,
        mapping: Dict,
    ) -> "IndexedAttribute":
        """Index on the dimension value of a stream attribute (join index).

        States whose attribute value is missing from the dimension table
        have no dimension value and are not indexed.
        """
        codes = {v: i for i, v in enumerate(sorted(set(mapping.values()), key=str))}

        def value_of(state_id: int):
            return mapping.get(space.attribute_value(state_id, attribute))

        return cls(f"{attribute}{JOIN_SEPARATOR}{table_name}", value_of, codes)

    # ------------------------------------------------------------------
    def code(self, value) -> int:
        try:
            return self._codes[value]
        except KeyError:
            raise QueryError(
                f"value {value!r} is not indexed under {self.name!r}"
            ) from None

    def has_value(self, value) -> bool:
        return value in self._codes

    def aggregate(self, marginal: SparseDistribution) -> Dict[object, float]:
        """Per indexed value, the summed marginal probability (§3.4.1:
        tuples at one timestep are disjoint, so summation is exact)."""
        out: Dict[object, float] = {}
        for state, p in marginal.items():
            value = self._value_of_state(state)
            if value is None:
                continue
            out[value] = out.get(value, 0.0) + p
        return out


def resolve_indexed_attribute(
    space: StateSpace,
    name: str,
    dimensions: Optional[Dict[str, Dict]] = None,
) -> IndexedAttribute:
    """Build an :class:`IndexedAttribute` from its name.

    ``name`` is a base attribute or ``attr/DimensionTable``; join names
    require the dimension table to be present in ``dimensions``.
    """
    if JOIN_SEPARATOR in name:
        attribute, table = name.split(JOIN_SEPARATOR, 1)
        mapping = (dimensions or {}).get(table)
        if mapping is None:
            raise CatalogError(
                f"join index {name!r} needs dimension table {table!r}"
            )
        return IndexedAttribute.joined(space, attribute, table, mapping)
    return IndexedAttribute.base(space, name)


def sanitize(name: str) -> str:
    """Make an indexed-attribute name filesystem-safe."""
    return name.replace(JOIN_SEPARATOR, "@")


def btc_tree_name(stream: str, indexed_attr: str) -> str:
    """Storage-tree name of a stream's BT_C index over one attribute."""
    return f"{stream}__btc__{sanitize(indexed_attr)}"


def btp_tree_name(stream: str, indexed_attr: str) -> str:
    """Storage-tree name of a stream's BT_P index over one attribute."""
    return f"{stream}__btp__{sanitize(indexed_attr)}"


def mc_tree_name(stream: str, predicate_signature: Optional[str] = None) -> str:
    """Storage-tree name of a stream's MC index (or, given a predicate
    signature, of its conditioned variant)."""
    if predicate_signature is None:
        return f"{stream}__mc"
    import hashlib

    digest = hashlib.sha1(predicate_signature.encode("utf-8")).hexdigest()[:12]
    return f"{stream}__mcc__{digest}"
