"""An LRU buffer pool of decoded page objects.

The pool caches *decoded* node objects rather than raw page images:
Python pays its deserialization cost only on misses, which mirrors how
a real buffer pool amortizes disk I/O and makes the logical/physical
read split meaningful — every page touch is a logical read, only misses
reach the pager.

The pool is read-only: trees are written whole through the pager
(:meth:`~repro.storage.btree.BTree.bulk_load` and ``rewrite``), never
by mutating a cached node, so a frame is never dirty and eviction is a
plain drop. Clients (B+ trees) register no state with the pool; each
call passes the client, which must expose:

- ``pool_key``   — hashable identity of the underlying file;
- ``pager``      — the :class:`~repro.storage.pager.Pager` to fill
  misses from;
- ``decode_page(page_id, raw) -> node`` — the node decoder.

The pool counts logical reads and evictions in the environment-wide
:class:`~repro.storage.stats.IOStats`; a miss's physical read is counted
by the pager.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..errors import StorageError
from .stats import IOStats

DEFAULT_POOL_PAGES = 1024


class BufferPool:
    """LRU map from (file, page) to decoded node, shared by every tree of
    one environment."""

    def __init__(
        self,
        capacity: int = DEFAULT_POOL_PAGES,
        stats: Optional[IOStats] = None,
    ) -> None:
        if capacity < 1:
            raise StorageError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        self._nodes: "OrderedDict[Tuple, object]" = OrderedDict()

    def get(self, client, page_id: int):
        """The decoded node for one page; a logical read, physical only
        on a miss."""
        self.stats.logical_reads += 1
        key = (client.pool_key, page_id)
        node = self._nodes.get(key)
        if node is not None:
            self._nodes.move_to_end(key)
            return node
        raw = client.pager.read(page_id)  # pager counts the physical read
        node = client.decode_page(page_id, raw)
        if len(self._nodes) >= self.capacity:
            self._nodes.popitem(last=False)  # the least recently used
            self.stats.evictions += 1
        self._nodes[key] = node
        return node

    def evict_all(self) -> None:
        """Drop every frame (cold-cache resets)."""
        self.stats.evictions += len(self._nodes)
        self._nodes.clear()

    def discard(self, client) -> None:
        """Drop every page of a client (tree rewritten, closed or
        dropped)."""
        for key in [k for k in self._nodes if k[0] == client.pool_key]:
            del self._nodes[key]

    @property
    def resident(self) -> int:
        return len(self._nodes)
