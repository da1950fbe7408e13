"""Catalog entries written by older versions: before the catalog
stopped recording a pack factor (the archive's own metadata record is
the only source of it), and before it recorded the CPT record format."""

import json

import pytest

from repro.core import Caldera
from repro.errors import CatalogError
from repro.probability.cpt import RECORD_VERSION
from repro.streams import (ENTERED_ROOM_QUERY, Layout,
                           single_attribute_space, synthetic_stream)
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


def test_stream_meta_without_a_record_version_is_format_one():
    obj = json.loads(_meta().to_json())
    assert obj["record"] == RECORD_VERSION
    del obj["record"]
    assert StreamMeta.from_json(json.dumps(obj).encode("utf-8")).record == 1


def test_caldera_refuses_a_stream_cataloged_in_another_record_format(
        tmp_path):
    """The catalog's record version gates every query, including on a
    ``separated`` stream whose reader never reads the archive metadata."""
    stream = synthetic_stream("syn", num_snippets=2, seed=1)
    with Caldera(str(tmp_path)) as db:
        meta = db.archive(stream, layout="separated")
        meta.record = 1
        db.catalog.update_stream(meta)
    with Caldera(str(tmp_path)) as db:
        with pytest.raises(CatalogError, match="format 1, expected 2"):
            db.query("syn", ENTERED_ROOM_QUERY, method="naive")
