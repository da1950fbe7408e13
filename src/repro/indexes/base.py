"""Shared machinery for secondary indexes.

BT_C (§3.1) and BT_P (§3.2) hold one set of entries, ``(value, time,
summed marginal probability)``, in two key orders: each order's
``encode`` and ``decode_entries``, both on arrays, live in :mod:`.btc`
/ :mod:`.btp`, and both share :class:`ValueIndex` here, which reads one
value's key range a leaf at a time and decodes each leaf's share with
one array decode.

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
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import CatalogError, QueryError
from ..storage import BTree, encode_key, prefix_upper_bound
from ..streams.schema import StateSpace
from . import btc, btp

JOIN_SEPARATOR = "/"

#: Each index kind's module: its ``KEY``, its ``encode(codes, times,
#: probs)`` (one row per entry, ``KEY.size`` key bytes then the value
#: bytes) and its ``decode_entries``.
LAYOUTS = {"btc": btc, "btp": btp}


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

    def state_codes(self, n_states: int) -> np.ndarray:
        """Each of ``n_states`` states' value code, -1 for a state with
        no indexed value: the map the index build aggregates marginals
        through."""
        values = map(self._value_of_state, range(n_states))
        return np.fromiter((-1 if v is None else self._codes[v]
                            for v in values), dtype=np.int64, count=n_states)


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
    def count(cls, codes: np.ndarray, times: np.ndarray, n_codes: int,
              pack: int) -> "ValueStats":
        """Count entries given as ``codes``/``times`` arrays sorted by
        code, then time."""
        first = np.ones(len(codes), dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        prev = np.zeros_like(times)
        prev[1:] = times[:-1]
        runs = first | (times != prev + 1)
        frames = first | (times // pack != prev // pack)

        def per_code(counted):
            return np.bincount(codes[counted], minlength=n_codes).tolist()

        return cls(per_code(slice(None)), per_code(runs), per_code(frames))

    @classmethod
    def scan(cls, index: "ValueIndex", pack: int) -> "ValueStats":
        """Count a built index's entries from its leaves (for archives
        written before the catalog recorded the statistics)."""
        codes, times = [], []
        for leaf, i, j in index.tree.range_slices():
            leaf_codes, leaf_times, _ = index.decode(leaf, i, j)
            codes.append(leaf_codes)
            times.append(leaf_times)
        codes, times = _joined(codes), _joined(times)
        order = np.lexsort((times, codes))
        return cls.count(codes[order], times[order], index.indexed.codes(),
                         pack)

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
    entries, in the key order of its ``kind`` (``btc``/``btp``), with the
    entries' statistics when known.

    Every key starts with its value's code, so one value's entries are
    one key range; :meth:`entries` reads it a leaf at a time and decodes
    each leaf's share in one piece.
    """

    def __init__(self, tree: BTree, indexed: IndexedAttribute, kind: str,
                 stats: Optional[ValueStats] = None) -> None:
        self.tree = tree
        self.indexed = indexed
        self.kind = kind
        self.stats = stats
        self._decode = LAYOUTS[kind].decode_entries

    def decode(self, leaf, i: int, j: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, times, probs)`` of a leaf's slots ``i .. j - 1``."""
        return self._decode(b"".join(leaf.keys[i:j]),
                            b"".join(leaf.values[i:j]))

    def entries(self, value, lo: tuple = (), hi: Optional[tuple] = None
                ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``(times, probs)`` of ``value``'s entries with keys from
        ``(code, *lo)`` up to ``(code, *hi)`` (to its last entry when
        ``hi`` is None), in key order, one leaf's share at a time. A leaf
        is read when the iteration reaches it; a value absent from the
        index reads nothing."""
        if not self.indexed.has_value(value):
            return
        code = self.indexed.code(value)
        first = encode_key((code, *lo))
        end = prefix_upper_bound(encode_key((code,))) if hi is None \
            else encode_key((code, *hi))
        for leaf, i, j in self.tree.range_slices(first, end):
            _, times, probs = self.decode(leaf, i, j)
            yield times, probs

    def count(self, value) -> int:
        """How many entries ``value`` has, by the statistics."""
        if not self.indexed.has_value(value):
            return 0
        return self.stats.entries[self.indexed.code(value)]

    def times(self, value, start: int, stop: int) -> np.ndarray:
        """The sorted timesteps in ``[start, stop)`` at which ``value``
        has an entry: one key range of a BT_C index."""
        return _joined([times for times, _ in
                        self.entries(value, (start,), (stop,))])


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, np.int64)


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
