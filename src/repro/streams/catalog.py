"""The database catalog: stream and dimension-table metadata.

One reserved tree (``__catalog``) per database maps stream names to
their :class:`StreamMeta` (length, layout, pack factor, state space,
leaf fences, built indexes) and dimension-table names to their value mappings
(§3.4.1). Every value is JSON, keyed through the order-preserving key
codec. The :class:`Catalog` holds the entries in memory and commits
each change by rewriting the whole tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import CatalogError
from ..probability.cpt import RECORD_VERSION
from ..storage import StorageEnvironment, decode_key, encode_key
from .archive import Fences, Layout
from .schema import StateSpace

CATALOG_TREE = "__catalog"


@dataclass
class StreamMeta:
    """Catalog entry for one archived stream."""

    name: str
    length: int
    layout: Layout
    space: StateSpace
    #: Built indexes: ``"btc:location"`` / ``"btp:location"`` /
    #: ``"mc"`` / ``"mcc:<signature>"`` -> parameters.
    indexes: Dict[str, Dict] = field(default_factory=dict)
    #: CPT record format of the stream's archive and MC indexes.
    record: int = RECORD_VERSION
    #: Timesteps per stored frame; None in entries written before the
    #: catalog kept it (the reader then takes it from the archive).
    pack: Optional[int] = None
    #: The archive's leaf fences (:meth:`StreamReader.fences`); None in
    #: entries written before the catalog kept them.
    fences: Optional[Fences] = None

    def to_json(self) -> bytes:
        return json.dumps({
            "name": self.name,
            "length": self.length,
            "layout": self.layout.value,
            "space": self.space.to_dict(),
            "indexes": self.indexes,
            "record": self.record,
            "pack": self.pack,
            "fences": self.fences,
        }).encode("utf-8")

    def joins(self, table: str) -> bool:
        """Whether a BT_C/BT_P join index of this stream reads ``table``."""
        return any(key.startswith(("btc:", "btp:"))
                   and key.partition("/")[2] == table for key in self.indexes)

    @classmethod
    def from_json(cls, data: bytes) -> "StreamMeta":
        obj = json.loads(data.decode("utf-8"))
        return cls(
            name=obj["name"],
            length=obj["length"],
            layout=Layout.parse(obj["layout"]),
            space=StateSpace.from_dict(obj["space"]),
            indexes=obj.get("indexes", {}),
            record=obj.get("record", 1),
            pack=obj.get("pack"),
            fences=obj.get("fences"),
        )


class Catalog:
    """Stream and dimension metadata of one database directory.

    The entries live in memory, read from the tree by one scan at open
    (one :class:`~repro.core.Caldera` per directory). A change is made
    to a copy of them, the copy is written with
    :meth:`~repro.storage.btree.BTree.rewrite` (one commit), and the
    copy replaces the live entries once the new file is renamed into
    place — even if the directory fsync after the rename fails, so this
    object always lists what the tree's file holds. A crash during the
    commit leaves the tree as it was before the change or after it; a
    change the tree refuses (a key too long for the page) writes no
    page and leaves this object as it was.
    """

    def __init__(self, env: StorageEnvironment) -> None:
        self._tree = env.open_tree(CATALOG_TREE)
        self._entries: Dict[bytes, bytes] = dict(self._tree.items())

    def _commit(self, entries: Dict[bytes, bytes]) -> None:
        before = self._tree.pager
        try:
            self._tree.rewrite(sorted(entries.items()))
        finally:
            # A rewrite that got past its rename reads a new file.
            if self._tree.pager is not before:
                self._entries = entries

    def _put(self, key: bytes, value: bytes) -> None:
        self._commit({**self._entries, key: value})

    # -- keys ----------------------------------------------------------
    @staticmethod
    def _stream_key(name: str) -> bytes:
        return encode_key(("stream", name))

    @staticmethod
    def _dim_key(name: str) -> bytes:
        return encode_key(("dim", name))

    def _names(self, kind: str) -> List[str]:
        return sorted(name for tag, name in map(decode_key, self._entries)
                      if tag == kind)

    # -- streams -------------------------------------------------------
    def has_stream(self, name: str) -> bool:
        return self._stream_key(name) in self._entries

    def check_key_size(self, size: int, what: str) -> None:
        """Raise :class:`~repro.errors.CatalogError` unless a key of
        ``size`` bytes fits this database's trees, which share the
        catalog tree's page size: checked before anything is written."""
        tree = self._tree
        if size > tree.max_key:
            raise CatalogError(
                f"{what} of {size} bytes exceeds the {tree.max_key}-byte "
                f"limit for {tree.page_size}-byte pages"
            )

    def check_stream_name(self, name: str) -> None:
        """Raise :class:`~repro.errors.CatalogError` unless the catalog
        tree can hold the key of a stream named ``name``."""
        self.check_key_size(len(self._stream_key(name)),
                            f"stream name {name!r} is too long: its "
                            f"catalog key")

    def register_stream(self, meta: StreamMeta) -> None:
        if self.has_stream(meta.name):
            raise CatalogError(f"stream {meta.name!r} is already registered")
        self._put(self._stream_key(meta.name), meta.to_json())

    def update_stream(self, meta: StreamMeta) -> None:
        if not self.has_stream(meta.name):
            raise CatalogError(f"unknown stream {meta.name!r}")
        self._put(self._stream_key(meta.name), meta.to_json())

    def stream_meta(self, name: str) -> StreamMeta:
        data = self._entries.get(self._stream_key(name))
        if data is None:
            raise CatalogError(f"unknown stream {name!r}")
        return StreamMeta.from_json(data)

    def list_streams(self) -> List[str]:
        return self._names("stream")

    def drop_stream(self, name: str) -> None:
        if not self.has_stream(name):
            raise CatalogError(f"unknown stream {name!r}")
        entries = dict(self._entries)
        del entries[self._stream_key(name)]
        self._commit(entries)

    # -- dimension tables ----------------------------------------------
    def register_dimension(self, name: str, mapping: Dict,
                           replace: bool = False) -> None:
        # Pairs, not an object: JSON objects force string keys.
        payload = json.dumps(
            [[k, v] for k, v in mapping.items()]
        ).encode("utf-8")
        old = self._entries.get(self._dim_key(name))
        if old is not None and not replace:
            raise CatalogError(
                f"dimension table {name!r} is already registered"
            )
        if old is not None and _mapping(old) != _mapping(payload):
            # Join indexes (``btc:attr/name``) hold masses summed, and
            # value codes numbered, under the old mapping.
            readers = [s for s in self.list_streams()
                       if self.stream_meta(s).joins(name)]
            if readers:
                raise CatalogError(
                    f"dimension table {name!r} is read by the join indexes "
                    f"of stream(s) {', '.join(readers)}; drop them first"
                )
        self._put(self._dim_key(name), payload)

    def dimension(self, name: str) -> Dict:
        data = self._entries.get(self._dim_key(name))
        if data is None:
            raise CatalogError(f"unknown dimension table {name!r}")
        return _mapping(data)

    def list_dimensions(self) -> List[str]:
        return self._names("dim")


def _mapping(payload: bytes) -> Dict:
    """Decode a stored dimension table (list keys become tuples)."""
    return {k if not isinstance(k, list) else tuple(k): v
            for k, v in json.loads(payload.decode("utf-8"))}
