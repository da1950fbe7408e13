"""Markovian streams: schema, in-memory model, on-disk archive, catalog,
and synthetic workload generation (§2, §3.4, §4.1.1)."""

from .archive import (
    DEFAULT_PACK,
    Layout,
    StreamReader,
    open_reader,
    write_stream,
)
from .catalog import Catalog, StreamMeta
from .markovian import CONSISTENCY_TOL, MarkovianStream
from .schema import StateSpace, Vocabulary, single_attribute_space
from .serde import dump_stream, load_stream
from .synthetic import (
    ENTERED_ROOM_QUERY,
    routine_stream,
    synthetic_space,
    synthetic_stream,
)

__all__ = [
    "CONSISTENCY_TOL",
    "Catalog",
    "DEFAULT_PACK",
    "ENTERED_ROOM_QUERY",
    "Layout",
    "MarkovianStream",
    "StateSpace",
    "StreamMeta",
    "StreamReader",
    "Vocabulary",
    "dump_stream",
    "load_stream",
    "open_reader",
    "routine_stream",
    "single_attribute_space",
    "synthetic_space",
    "synthetic_stream",
    "write_stream",
]
