"""The database catalog: stream and dimension-table metadata.

One reserved tree (``__catalog``) per database maps stream names to
their :class:`StreamMeta` (length, layout, state space, built indexes)
and dimension-table names to their value mappings (§3.4.1). Everything
is JSON inside the tree, keyed through the order-preserving key codec
so ``list_streams`` is a prefix scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import CatalogError
from ..probability.cpt import RECORD_VERSION
from ..storage import StorageEnvironment, encode_key, prefix_upper_bound
from .archive import Layout
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

    def to_json(self) -> bytes:
        return json.dumps({
            "name": self.name,
            "length": self.length,
            "layout": self.layout.value,
            "space": self.space.to_dict(),
            "indexes": self.indexes,
            "record": self.record,
        }).encode("utf-8")

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
        )


class Catalog:
    """Stream and dimension metadata of one database directory."""

    def __init__(self, env: StorageEnvironment) -> None:
        self._tree = env.open_tree(CATALOG_TREE)

    # -- keys ----------------------------------------------------------
    @staticmethod
    def _stream_key(name: str) -> bytes:
        return encode_key(("stream", name))

    @staticmethod
    def _dim_key(name: str) -> bytes:
        return encode_key(("dim", name))

    def _names_with_prefix(self, kind: str) -> List[str]:
        prefix = encode_key((kind,))
        out = []
        for key, _ in self._tree.range_items(prefix,
                                             prefix_upper_bound(prefix)):
            from ..storage.keyenc import decode_key

            out.append(decode_key(key)[1])
        return sorted(out)

    # -- streams -------------------------------------------------------
    def has_stream(self, name: str) -> bool:
        return self._tree.get(self._stream_key(name)) is not None

    def register_stream(self, meta: StreamMeta) -> None:
        if self.has_stream(meta.name):
            raise CatalogError(f"stream {meta.name!r} is already registered")
        self._tree.put(self._stream_key(meta.name), meta.to_json())
        self._tree.flush()

    def update_stream(self, meta: StreamMeta) -> None:
        if not self.has_stream(meta.name):
            raise CatalogError(f"unknown stream {meta.name!r}")
        self._tree.put(self._stream_key(meta.name), meta.to_json())
        self._tree.flush()

    def stream_meta(self, name: str) -> StreamMeta:
        data = self._tree.get(self._stream_key(name))
        if data is None:
            raise CatalogError(f"unknown stream {name!r}")
        return StreamMeta.from_json(data)

    def list_streams(self) -> List[str]:
        return self._names_with_prefix("stream")

    def drop_stream(self, name: str) -> None:
        if not self.has_stream(name):
            raise CatalogError(f"unknown stream {name!r}")
        self._tree.delete(self._stream_key(name))
        self._tree.flush()

    # -- dimension tables ----------------------------------------------
    def register_dimension(self, name: str, mapping: Dict,
                           replace: bool = False) -> None:
        if not replace and self._tree.get(self._dim_key(name)) is not None:
            raise CatalogError(
                f"dimension table {name!r} is already registered"
            )
        # Pairs, not an object: JSON objects force string keys.
        payload = json.dumps(
            [[k, v] for k, v in mapping.items()]
        ).encode("utf-8")
        self._tree.put(self._dim_key(name), payload)
        self._tree.flush()

    def dimension(self, name: str) -> Dict:
        data = self._tree.get(self._dim_key(name))
        if data is None:
            raise CatalogError(f"unknown dimension table {name!r}")
        return {k if not isinstance(k, list) else tuple(k): v
                for k, v in json.loads(data.decode("utf-8"))}

    def list_dimensions(self) -> List[str]:
        return self._names_with_prefix("dim")
