"""Secondary indexes on Markovian streams: BT_C, BT_P, and the MC index."""

from .base import (
    IndexedAttribute,
    ValueCursor,
    ValueIndex,
    ValueStats,
    index_tree_name,
    mc_tree_name,
    resolve_indexed_attribute,
)
from .btc import ChronoCursor, PredicateChronoCursor
from .btp import PredicateProbCursor, ProbCursor
from .builder import build_mc, build_value_indexes, open_mc, open_value_index
from .mc import MCIndex, MCLookupStats

__all__ = [
    "ChronoCursor",
    "IndexedAttribute",
    "MCIndex",
    "MCLookupStats",
    "PredicateChronoCursor",
    "PredicateProbCursor",
    "ProbCursor",
    "ValueCursor",
    "ValueIndex",
    "ValueStats",
    "build_mc",
    "build_value_indexes",
    "index_tree_name",
    "mc_tree_name",
    "open_mc",
    "open_value_index",
    "resolve_indexed_attribute",
]
