"""Shared machinery for secondary indexes.

BT_C (§3.1) and BT_P (§3.2) hold one set of entries, ``(value, time,
summed marginal probability)``, in two key orders: each order's
``entry``/``decode`` pair lives in :mod:`.btc` / :mod:`.btp`, and both
share :class:`ValueIndex` and the per-value :class:`ValueCursor` here.

An *indexed attribute* is either a base stream attribute (``location``)
or a star-schema join attribute (``location/LocationType`` — the
attribute's value mapped through a dimension table, §3.4.1). Both kinds
index, per timestep, the summed marginal probability of each attribute
value; a join index thereby materializes the paper's
``(D.a, M.time)`` / ``(D.a, M.prob)`` search keys without modifying the
stream.

Tree naming: ``{stream}__{kind}__{attr}`` (kind ``btc`` or ``btp``)
with ``/`` sanitized to ``@`` for the filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import CatalogError, QueryError
from ..probability import SparseDistribution
from ..storage import BTree, encode_key, prefix_upper_bound
from ..storage.keyenc import decode_key
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

    def codes(self) -> int:
        """One more than the largest value code."""
        return max(self._codes.values(), default=-1) + 1

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


@dataclass
class ValueStats:
    """The shape of one indexed attribute's entries, per value code:
    how many timesteps hold an entry, in how many *runs* (maximal
    stretches of consecutive timesteps), and in how many *frames*
    (distinct ``t // pack`` blocks, ``pack`` being the archive's frame
    size). The planner's cost model reads them; the catalog stores them
    with the stream's BT_C entry."""

    entries: List[int]
    runs: List[int]
    frames: List[int]

    @classmethod
    def count(cls, pairs: Iterable[Tuple[int, int]], codes: int,
              pack: int) -> "ValueStats":
        """Count ``(code, t)`` pairs whose times increase per code."""
        stats = cls([0] * codes, [0] * codes, [0] * codes)
        last = [-2] * codes
        for code, t in pairs:
            stats.entries[code] += 1
            stats.runs[code] += t != last[code] + 1
            stats.frames[code] += last[code] < 0 or \
                t // pack != last[code] // pack
            last[code] = t
        return stats

    @classmethod
    def scan(cls, index: "ValueIndex", pack: int) -> "ValueStats":
        """Count a built index's entries from its leaves (for archives
        written before the catalog recorded the statistics). Either key
        order starts with the code and ends with the time."""
        pairs = sorted((parts[0], parts[-1]) for parts in
                       (decode_key(key) for key, _ in index.tree.items()))
        return cls.count(pairs, index.indexed.codes(), pack)

    def to_dict(self) -> Dict[str, List[int]]:
        return {"entries": self.entries, "runs": self.runs,
                "frames": self.frames}

    @classmethod
    def from_dict(cls, data: Dict) -> Optional["ValueStats"]:
        """The recorded statistics, or None when ``data`` has none."""
        if "entries" not in data:
            return None
        return cls(data["entries"], data["runs"], data["frames"])


class ValueIndex:
    """One BT_C or BT_P index: a B+ tree of one indexed attribute's
    entries, in its kind's key order, with the entries' statistics when
    known."""

    def __init__(self, tree: BTree, indexed: IndexedAttribute,
                 stats: Optional[ValueStats] = None) -> None:
        self.tree = tree
        self.indexed = indexed
        self.stats = stats


class ValueCursor:
    """Forward cursor over one attribute value's entries in an index.

    Every key starts with the value's code, so the value's entries are
    one key range; subclasses supply ``decode(key, value) -> (time,
    prob)`` for their key order. A value absent from the index never
    becomes valid.
    """

    decode: Callable[[bytes, bytes], Tuple[int, float]]

    def __init__(self, index: ValueIndex, value) -> None:
        self._cursor = None
        if index.indexed.has_value(value):
            self._code = index.indexed.code(value)
            self._hi = prefix_upper_bound(encode_key((self._code,)))
            self._cursor = index.tree.cursor()
        self._time: Optional[int] = None
        self._prob = 0.0

    @property
    def valid(self) -> bool:
        return self._time is not None

    @property
    def time(self) -> int:
        if self._time is None:
            raise QueryError("index cursor is exhausted")
        return self._time

    @property
    def prob(self) -> float:
        if self._time is None:
            raise QueryError("index cursor is exhausted")
        return self._prob

    def seek(self, *rest) -> bool:
        """Position on the value's first entry with key >= ``(code,
        *rest)``; with no ``rest``, on its first entry."""
        if self._cursor is None:
            return False
        return self._load(self._cursor.seek(encode_key((self._code, *rest))))

    def next(self) -> bool:
        if self._time is None:
            return False
        return self._load(self._cursor.next())

    def _load(self, ok: bool) -> bool:
        cursor = self._cursor
        if not ok or cursor.key >= self._hi:
            self._time = None
            return False
        self._time, self._prob = self.decode(cursor.key, cursor.value)
        return True


def sanitize(name: str) -> str:
    """Make an indexed-attribute name filesystem-safe."""
    return name.replace(JOIN_SEPARATOR, "@")


def index_tree_name(stream: str, kind: str, indexed_attr: str) -> str:
    """Storage-tree name of a stream's ``btc`` or ``btp`` index over one
    attribute."""
    return f"{stream}__{kind}__{sanitize(indexed_attr)}"


def mc_tree_name(stream: str, predicate_signature: Optional[str] = None) -> str:
    """Storage-tree name of a stream's MC index (or, given a predicate
    signature, of its conditioned variant)."""
    if predicate_signature is None:
        return f"{stream}__mc"
    import hashlib

    digest = hashlib.sha1(predicate_signature.encode("utf-8")).hexdigest()[:12]
    return f"{stream}__mcc__{digest}"
