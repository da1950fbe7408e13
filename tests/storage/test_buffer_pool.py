"""LRU behavior, eviction accounting, and the logical/physical split."""

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.stats import IOStats


class RawClient:
    """A minimal pool client: pages decode to their bytes."""

    def __init__(self, pager):
        self.pager = pager
        self.pool_key = pager.path

    def decode_page(self, page_id, raw):
        return bytes(raw)


@pytest.fixture
def setup(tmp_path):
    stats = IOStats()
    pager = Pager(str(tmp_path / "f.db"), page_size=128, stats=stats,
                  create=True)
    client = RawClient(pager)
    pages = []
    for i in range(8):
        page = pager.allocate()
        pager.write(page, bytes([i]) * 16)
        pages.append(page)
    stats.reset()
    yield stats, pager, client, pages
    pager.close()


def test_logical_vs_physical_counts(setup):
    stats, _, client, pages = setup
    pool = BufferPool(4, stats)
    for _ in range(5):
        pool.get(client, pages[0])
    assert stats.logical_reads == 5
    assert stats.physical_reads == 1  # one miss, four hits
    assert stats.hit_rate == pytest.approx(0.8)


def test_lru_eviction_order(setup):
    stats, _, client, pages = setup
    pool = BufferPool(3, stats)
    pool.get(client, pages[0])
    pool.get(client, pages[1])
    pool.get(client, pages[2])
    pool.get(client, pages[0])  # refresh page 0: page 1 is now LRU
    pool.get(client, pages[3])  # evicts page 1
    before = stats.physical_reads
    for page in (pages[0], pages[2], pages[3]):
        pool.get(client, page)
    assert stats.physical_reads == before  # all three still resident
    # Re-reading the evicted page is a physical miss again.
    pool.get(client, pages[1])
    assert stats.physical_reads == before + 1


def test_clean_eviction_skips_write(setup):
    stats, _, client, pages = setup
    pool = BufferPool(2, stats)
    for page in pages[:4]:
        pool.get(client, page)
    assert stats.physical_writes == 0


def test_evict_all_empties_the_pool(setup):
    stats, _, client, pages = setup
    pool = BufferPool(8, stats)
    node = pool.get(client, pages[5])
    pool.evict_all()
    assert pool.resident == 0
    # After the drop, the next access is physical again (cold cache),
    # and it decodes the same page.
    before = stats.physical_reads
    assert pool.get(client, pages[5]) == node
    assert stats.physical_reads == before + 1


def test_discard_drops_a_whole_client(setup):
    stats, _, client, pages = setup
    pool = BufferPool(4, stats)
    for page in pages[:3]:
        pool.get(client, page)
    pool.discard(client)
    assert pool.resident == 0
    before = stats.physical_reads
    pool.get(client, pages[0])
    assert stats.physical_reads == before + 1  # read again from the pager


# ----------------------------------------------------------------------
# Eviction accounting (IOStats extension)
# ----------------------------------------------------------------------
def test_eviction_counter_counts_capacity_evictions(setup):
    stats, _, client, pages = setup
    pool = BufferPool(2, stats)
    for page in pages[:5]:
        pool.get(client, page)
    # Capacity 2, five distinct pages -> three frames pushed out.
    assert stats.evictions == 3


def test_evict_all_counts_dropped_frames(setup):
    stats, _, client, pages = setup
    pool = BufferPool(8, stats)
    for page in pages[:4]:
        pool.get(client, page)
    pool.evict_all()
    assert stats.evictions == 4
    assert pool.resident == 0


def test_iostats_and_resident_track_hits_misses_evictions(setup):
    stats, _, client, pages = setup
    pool = BufferPool(2, stats)
    for page in pages[:3]:
        pool.get(client, page)
    pool.get(client, pages[2])  # hit
    assert stats.logical_reads == 4
    assert stats.physical_reads == 3  # the misses
    assert stats.evictions == 1
    assert pool.resident == 2
    pool.discard(client)
    assert pool.resident == 0


# ----------------------------------------------------------------------
# hit_rate edge cases
# ----------------------------------------------------------------------
def test_hit_rate_with_no_reads_is_one():
    assert IOStats().hit_rate == 1.0


def test_hit_rate_all_misses_is_zero(setup):
    stats, _, client, pages = setup
    pool = BufferPool(1, stats)
    pool.get(client, pages[0])
    pool.get(client, pages[1])
    assert stats.hit_rate == 0.0


def test_hit_rate_never_negative():
    # Physical reads can exceed logical reads (e.g. free-list walks and
    # header reads bypass the pool); the rate must clamp at zero.
    stats = IOStats(logical_reads=2, physical_reads=5)
    assert stats.hit_rate == 0.0


def test_snapshot_delta_reset_cover_all_fields():
    from dataclasses import asdict

    stats = IOStats(logical_reads=7, physical_reads=3, physical_writes=2,
                    evictions=4)
    snap = stats.snapshot()
    assert asdict(snap) == asdict(stats)
    stats.physical_writes += 2
    stats.evictions += 1
    delta = stats.delta(snap)
    assert asdict(delta) == {
        "logical_reads": 0, "physical_reads": 0, "physical_writes": 2,
        "evictions": 1,
    }
    stats.reset()
    assert asdict(stats) == asdict(IOStats())
    assert "evictions" in stats.summary()
