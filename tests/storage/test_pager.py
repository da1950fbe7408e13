"""Page allocation, straight-through writes, and file-format validation."""

import pytest

from repro.errors import PageError, StorageError
from repro.storage.pager import Pager
from repro.storage.stats import IOStats


def test_allocate_write_read_roundtrip(tmp_path):
    with Pager(str(tmp_path / "p.db"), page_size=256, create=True) as pager:
        a = pager.allocate()
        b = pager.allocate()
        assert (a, b) == (1, 2)  # page 0 is the meta page
        pager.write(a, b"alpha")
        pager.write(b, b"beta")
        assert pager.read(a).rstrip(b"\x00") == b"alpha"
        assert pager.read(b).rstrip(b"\x00") == b"beta"
        assert pager.read(a) != pager.read(b)
        assert len(pager.read(a)) == 256


def test_meta_persists_across_reopen(tmp_path):
    path = str(tmp_path / "p.db")
    with Pager(path, page_size=512, create=True) as pager:
        keep = pager.allocate()
        pager.allocate()
        pager.write(keep, b"persisted")
        high_water = pager.num_pages
        pager.sync()
    with Pager(path) as pager:
        assert pager.page_size == 512
        assert pager.num_pages == high_water
        assert pager.read(keep).rstrip(b"\x00") == b"persisted"
        assert pager.free_head == 0


def test_a_committed_file_takes_no_writes(tmp_path):
    path = str(tmp_path / "p.db")
    with Pager(path, page_size=256, create=True) as pager:
        page = pager.allocate()
        pager.write(page, b"once")
        pager.sync()
    with Pager(path) as pager:
        for change in (pager.allocate, lambda: pager.write(page, b"twice")):
            with pytest.raises(StorageError, match="never changed"):
                change()
        assert pager.read(page).rstrip(b"\x00") == b"once"


def test_close_writes_nothing(tmp_path):
    """Only sync writes the meta frame: a new file closed without it is
    abandoned, not committed."""
    path = str(tmp_path / "p.db")
    pager = Pager(path, page_size=256, create=True)
    pager.write(pager.allocate(), b"never synced")
    pager.close()
    with pytest.raises(PageError):
        Pager(path)


def test_page_size_mismatch_fails_loudly(tmp_path):
    path = str(tmp_path / "p.db")
    with Pager(path, page_size=256, create=True) as pager:
        pager.sync()
    with pytest.raises(PageError, match="page"):
        Pager(path, page_size=512)


def test_bad_magic_fails_loudly(tmp_path):
    path = str(tmp_path / "p.db")
    with open(path, "wb") as fh:
        fh.write(b"not a caldera file" * 20)
    with pytest.raises(PageError, match="magic"):
        Pager(path)


def test_out_of_range_and_oversized_writes_rejected(tmp_path):
    with Pager(str(tmp_path / "p.db"), page_size=128, create=True) as pager:
        page = pager.allocate()
        with pytest.raises(PageError):
            pager.read(page + 1)
        with pytest.raises(PageError):
            pager.read(0)  # the meta page is not client-addressable
        with pytest.raises(PageError):
            pager.write(page, b"x" * 129)


def test_missing_file_without_create(tmp_path):
    with pytest.raises(StorageError):
        Pager(str(tmp_path / "absent.db"), create=False)


def test_physical_io_is_counted(tmp_path):
    stats = IOStats()
    with Pager(str(tmp_path / "p.db"), page_size=256, stats=stats,
               create=True) as pager:
        page = pager.allocate()
        writes_before = stats.physical_writes
        pager.write(page, b"data")
        assert stats.physical_writes == writes_before + 1
        reads_before = stats.physical_reads
        pager.read(page)
        pager.read(page)  # the pager has no cache: every read is physical
        assert stats.physical_reads == reads_before + 2
