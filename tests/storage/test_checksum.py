"""Page checksums: corruption is detected on read, never decoded."""

import pytest

from repro.errors import CorruptPageError
from repro.storage import IOStats, Pager, StorageEnvironment
from repro.storage.pager import PAGE_HEADER_SIZE


def build_pager(tmp_path, **kw):
    pager = Pager(str(tmp_path / "f"), page_size=128, create=True, **kw)
    a = pager.allocate()
    b = pager.allocate()
    pager.write(a, b"A" * 100)
    pager.write(b, b"B" * 50)
    pager.sync()
    return pager, a, b


def corrupt(path, offset, data=b"\xde\xad"):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


def test_round_trip_is_checksummed_transparently(tmp_path):
    pager, a, b = build_pager(tmp_path)
    assert pager.read(a) == b"A" * 100 + b"\x00" * 28
    assert pager.read(b).rstrip(b"\x00") == b"B" * 50
    pager.close()


def test_flipped_payload_byte_raises_corrupt_page(tmp_path):
    pager, a, _ = build_pager(tmp_path)
    pager.close()
    frame_size = 128 + PAGE_HEADER_SIZE
    corrupt(str(tmp_path / "f"), a * frame_size + PAGE_HEADER_SIZE + 10)
    reopened = Pager(str(tmp_path / "f"))
    with pytest.raises(CorruptPageError):
        reopened.read(a)
    reopened.close()


def test_flipped_header_byte_raises_corrupt_page(tmp_path):
    pager, a, _ = build_pager(tmp_path)
    pager.close()
    frame_size = 128 + PAGE_HEADER_SIZE
    corrupt(str(tmp_path / "f"), a * frame_size + 5)  # inside the lsn
    reopened = Pager(str(tmp_path / "f"))
    with pytest.raises(CorruptPageError):
        reopened.read(a)
    reopened.close()


def test_a_corrupt_frame_fails_every_read(tmp_path):
    pager, a, b = build_pager(tmp_path)
    pager.close()
    frame_size = 128 + PAGE_HEADER_SIZE
    corrupt(str(tmp_path / "f"), a * frame_size + PAGE_HEADER_SIZE)
    stats = IOStats()
    reopened = Pager(str(tmp_path / "f"), stats=stats)
    for _ in range(3):
        with pytest.raises(CorruptPageError):
            reopened.read(a)
    assert stats.physical_reads == 3  # each read went to the file
    assert reopened.read(b).rstrip(b"\x00") == b"B" * 50  # page b is whole
    reopened.close()


def test_never_written_page_reads_as_zeros(tmp_path):
    pager = Pager(str(tmp_path / "f"), page_size=128, create=True)
    a = pager.allocate()
    pager.sync()  # page allocated but its frame never written
    assert pager.read(a) == bytes(128)
    pager.close()


def test_corrupt_meta_page_fails_open(tmp_path):
    pager, _, _ = build_pager(tmp_path)
    pager.close()
    corrupt(str(tmp_path / "f"), 8)  # inside the meta struct
    with pytest.raises(CorruptPageError):
        Pager(str(tmp_path / "f"))


def test_corruption_surfaces_through_the_tree(tmp_path):
    env = StorageEnvironment(str(tmp_path / "db"), page_size=256)
    tree = env.open_tree("t")
    tree.bulk_load((f"k{i:04d}".encode(), b"v") for i in range(200))
    env.close()
    # Corrupt the payload of every page except meta; any read must fail
    # loudly, never return garbage tuples.
    path = str(tmp_path / "db" / "t.btree")
    frame_size = 256 + PAGE_HEADER_SIZE
    corrupt(path, 3 * frame_size + PAGE_HEADER_SIZE + 4, b"\xff" * 8)
    env2 = StorageEnvironment(str(tmp_path / "db"), page_size=256)
    tree2 = env2.open_tree("t", create=False)
    with pytest.raises(CorruptPageError):
        for _ in tree2.items():
            pass
    env2.close()
