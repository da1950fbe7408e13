"""Catalog entries written before the catalog stopped recording a pack
factor (the archive's own metadata record is the only source of it)."""

import json

from repro.streams import Layout, single_attribute_space
from repro.streams.catalog import StreamMeta


def _meta() -> StreamMeta:
    space = single_attribute_space("location", ["Door", "Room"])
    return StreamMeta("s", 12, Layout.CELL, space,
                      indexes={"mc": {"alpha": 2}})


def test_stream_meta_loads_entries_that_carry_pack():
    """Older catalogs wrote ``"pack": 8`` for every stream, whatever its
    layout; such entries still load, and the key is dropped on rewrite."""
    obj = json.loads(_meta().to_json())
    obj["pack"] = 8
    loaded = StreamMeta.from_json(json.dumps(obj).encode("utf-8"))
    assert loaded == _meta()
    assert "pack" not in json.loads(loaded.to_json())
