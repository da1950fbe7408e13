"""The catalog: entries written by older versions (a pack factor for
every layout, no pack factor, no CPT record format), the pack factor
that spares the reader its metadata read, and a refused change."""

import json

import pytest

from repro.core import Caldera
from repro.errors import CatalogError, StorageError
from repro.probability.cpt import RECORD_VERSION
from repro.storage import StorageEnvironment
from repro.streams import (ENTERED_ROOM_QUERY, Layout,
                           single_attribute_space, synthetic_stream)
from repro.streams.catalog import CATALOG_TREE, Catalog, StreamMeta


def _meta() -> StreamMeta:
    space = single_attribute_space("location", ["Door", "Room"])
    return StreamMeta("s", 12, Layout.CELL, space,
                      indexes={"mc": {"alpha": 2}})


def test_stream_meta_loads_entries_that_carry_pack():
    """The oldest catalogs stored ``"pack": 8`` for every stream,
    whatever its layout: 8 is the only pack factor ``Caldera.archive``
    has used, and the separated and cell readers ignore it, so such
    entries load as they are."""
    obj = json.loads(_meta().to_json())
    obj["pack"] = 8
    loaded = StreamMeta.from_json(json.dumps(obj).encode("utf-8"))
    assert loaded.pack == 8
    assert json.loads(loaded.to_json())["pack"] == 8


def test_stream_meta_without_pack_falls_back_to_the_archive():
    """Later catalogs recorded no pack factor for a while; the reader
    then takes it from the archive's metadata record."""
    obj = json.loads(_meta().to_json())
    del obj["pack"]
    assert StreamMeta.from_json(json.dumps(obj).encode("utf-8")).pack is None


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


@pytest.mark.parametrize("layout", ["separated", "cell", "packed"])
def test_reader_reads_no_pages_on_any_layout(tmp_path, layout):
    """The catalog is in memory and records the pack factor, so opening
    a reader reads no page on any layout; an entry without the pack
    factor still opens, from the archive's metadata record."""
    stream = synthetic_stream("syn", num_snippets=2, seed=1)
    with Caldera(str(tmp_path)) as db:
        db.archive(stream, layout=layout)
    with Caldera(str(tmp_path)) as db:
        before = db.stats.logical_reads
        reader = db.reader("syn")
        assert db.stats.logical_reads == before
        meta = db.stream_meta("syn")
        assert meta.pack == reader.pack
        meta.pack = None
        db.catalog.update_stream(meta)
        assert db.reader("syn").pack == reader.pack


def test_a_failed_catalog_change_leaves_the_catalog_as_it_was(tmp_path):
    """A change the tree refuses (here a key too long for the page)
    writes no page and leaves the in-memory entries untouched."""
    with StorageEnvironment(str(tmp_path), page_size=512) as env:
        catalog = Catalog(env)
        catalog.register_stream(_meta())
        tree = env.open_tree(CATALOG_TREE)
        entries = list(tree.items())
        writes = env.stats.physical_writes
        long_name = _meta()
        long_name.name = "s" * 64
        with pytest.raises(StorageError, match="exceeds"):
            catalog.register_stream(long_name)
        assert env.stats.physical_writes == writes
        assert catalog.list_streams() == ["s"]
        assert list(tree.items()) == entries
    with StorageEnvironment(str(tmp_path), page_size=512) as env:
        assert Catalog(env).list_streams() == ["s"]


@pytest.mark.parametrize("site", ["pager.write", "pager.fsync",
                                  "pager.rename", "dir.fsync"])
def test_after_a_failed_commit_the_catalog_lists_what_its_file_holds(
        tmp_path, site):
    """An I/O error anywhere in a catalog commit leaves the in-memory
    entries equal to the file's: the old ones up to the rename, the new
    ones from the rename on (an error at the directory fsync after it)."""
    from repro.storage.faults import FaultInjector, FaultRule

    inj = FaultInjector()
    with StorageEnvironment(str(tmp_path), page_size=512,
                            faults=inj) as env:
        catalog = Catalog(env)
        catalog.register_stream(_meta())
        inj.rules.append(FaultRule(site, inj.hits[site] + 1, "error"))
        second = _meta()
        second.name = "t"
        with pytest.raises(OSError):
            catalog.register_stream(second)
        assert inj.fired
        listed = catalog.list_streams()
    with StorageEnvironment(str(tmp_path), page_size=512) as env:
        assert Catalog(env).list_streams() == listed
    assert listed == (["s", "t"] if site == "dir.fsync" else ["s"])
