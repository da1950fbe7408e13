"""A page-based, write-once B+ tree with variable-length keys and values.

The Berkeley DB b-tree substitute (DESIGN.md substitution 1). Keys and
values are byte strings; keys compare raw (see
:mod:`~repro.storage.keyenc` for order-preserving composite keys).

Layout and behavior:

- **Trees are written whole.** :meth:`BTree.bulk_load` builds packed
  leaves bottom-up from sorted input, then stacks branch levels on
  top — the archive path every stream and index build uses.
  :meth:`BTree.rewrite` replaces a tree's entire contents the same way
  (the catalog's commit). Both write a new file beside the tree's own,
  fsync it and rename it over ``<name>.btree``, so the file at that
  name is always complete and a crash leaves the old contents or the
  new ones; nothing mutates a page in place. A tree opened but never
  loaded has no file and reads as empty.
- **Leaves are packed by the page.** A load takes its input a batch
  of entries at a time, checks the batch in one pass, finds where the
  leaves cut with one cumulative sum of the entry sizes and one
  ``searchsorted`` per leaf, and writes each leaf as its header plus
  one slice of the serialised entries. :class:`FixedRows` (sorted
  fixed-width rows in a NumPy array) serialise a batch at a time with
  the entry header as leading columns, with no ``bytes`` per entry.
- **Leaves are doubly linked**, so a range scan descends once and then
  walks the sibling links: :meth:`BTree.leaves` hands out whole leaves
  (the value indexes decode a leaf's share of a range as arrays),
  :meth:`BTree.run_values` a run's values a leaf's slice at a time
  (the stream archive's runs of timesteps), and
  :meth:`BTree.range_items` entries one by one on top of it.
- **Leaf fences** (:meth:`BTree.fences`): the first key of every leaf
  but the first, kept from the load that wrote them, so a run's reads
  can be predicted without reading a page.
- **Values above ¼ page spill** into chained overflow pages; the leaf
  keeps a fixed-size pointer, so huge CPT blobs never break fan-out.
- Page 1 is the tree header (magic, root, leaf-chain ends, counters);
  corrupt or mis-opened files fail loudly.

Cost model: a point lookup reads exactly ``height`` pages logically
(one per level); a range or run read costs the descent to its first
key and then one read per further leaf it spans, i.e. ``height`` plus
the fences it crosses (overflow chains aside). Every page read goes
through the shared buffer pool, so all costs land in the
environment's :class:`~repro.storage.stats.IOStats`.
"""

from __future__ import annotations

import operator
import os
import struct
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import (Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..errors import CorruptPageError, PageError, StorageError
from .buffer_pool import BufferPool
from .faults import NO_FAULTS
from .pager import DEFAULT_PAGE_SIZE, Pager
from .stats import IOStats

#: Suffix of the file a load writes before renaming it over the tree's.
_SIBLING_SUFFIX = ".new"

_HEADER_PAGE = 1
_HDR_MAGIC = b"CALB"
_HDR = struct.Struct(">4sIIIIHQ")  # magic, root, first, last, leaves, height, entries

_PAGE_LEAF = 0x01
_PAGE_BRANCH = 0x02
_PAGE_OVERFLOW = 0x03

_LEAF_HDR = struct.Struct(">BIIH")      # type, prev, next, count
_LEAF_ENTRY = struct.Struct(">HBI")     # klen, flags, vlen
_BRANCH_HDR = struct.Struct(">BH")      # type, nkeys
_CHILD = struct.Struct(">I")
_KLEN = struct.Struct(">H")
_OVF_HDR = struct.Struct(">BIH")        # type, next, length
_OVF_PTR = struct.Struct(">IQ")         # first page, total length

_FLAG_SPILLED = 0x01

#: Entries a load takes from its input at a time.
_BATCH = 2048


class FixedRows(NamedTuple):
    """Sorted entries of one width, for :meth:`BTree.bulk_load`: each
    row of the 2-D uint8 array ``rows`` is one entry, its first
    ``key_width`` bytes the key and the rest the value."""

    rows: np.ndarray
    key_width: int


#: What a load writes: sorted ``(key, value)`` pairs, or fixed-width rows.
Entries = Union[Iterable[Tuple[bytes, bytes]], FixedRows]


def _split(pairs: Sequence[Tuple[bytes, bytes]]
           ) -> Tuple[Sequence[bytes], Sequence[bytes]]:
    """The keys and the values of ``(key, value)`` pairs."""
    keys, values = tuple(zip(*pairs)) or ((), ())
    return keys, values


def _all_bytes(items: Sequence) -> bool:
    return all(issubclass(kind, (bytes, bytearray))
               for kind in set(map(type, items)))


class LeafNode:
    __slots__ = ("page_id", "prev", "next", "keys", "values", "flags")

    def __init__(self, page_id: int, prev: int = 0, nxt: int = 0) -> None:
        self.page_id = page_id
        self.prev = prev
        self.next = nxt
        self.keys: List[bytes] = []
        self.values: List[bytes] = []
        self.flags: List[int] = []


#: What page id 0 (no page: the root and first leaf of a tree without
#: a file) reads as.
_NO_LEAF = LeafNode(0)


class BranchNode:
    __slots__ = ("page_id", "keys", "children")

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        self.keys: List[bytes] = []
        self.children: List[int] = []


class OverflowNode:
    __slots__ = ("page_id", "next", "data")

    def __init__(self, page_id: int, nxt: int, data: bytes) -> None:
        self.page_id = page_id
        self.next = nxt
        self.data = data


class BTree:
    """One write-once B+ tree over one page file, read through a shared
    buffer pool."""

    def __init__(
        self,
        path: str,
        pool: BufferPool,
        name: Optional[str] = None,
        page_size: Optional[int] = None,
        stats: Optional[IOStats] = None,
        create: bool = True,
        faults=None,
    ) -> None:
        self.path = path
        self.pool = pool
        self.name = name if name is not None else path
        self.pool_key = path
        self.stats = stats if stats is not None else IOStats()
        self.faults = faults if faults is not None else NO_FAULTS
        #: The committed file's pager; None until the first load when
        #: the tree has no file.
        self.pager: Optional[Pager] = None
        if os.path.exists(path):
            self.pager = Pager(path, page_size=page_size, stats=self.stats,
                               faults=self.faults)
            try:
                self._set_header(*self._read_header())
            except BaseException:
                self.pager.close()
                raise
            page_size = self.pager.page_size
        elif not create:
            raise StorageError(f"tree {self.name!r} does not exist")
        else:
            self._set_header(0, 0, 0, leaves=0, height=0, entries=0)
        #: :meth:`fences` once known: from the load, or read once.
        self._fences: Optional[List[bytes]] = None if self.pager else []
        self.page_size = page_size or DEFAULT_PAGE_SIZE
        self.max_key = max(24, self.page_size // 16)
        self.max_inline = self.page_size // 4
        #: Entry bytes one leaf holds.
        self._leaf_room = self.page_size - 2 * _LEAF_HDR.size

    # ------------------------------------------------------------------
    # Header
    # ------------------------------------------------------------------
    def _read_header(self) -> Tuple[int, int, int, int, int, int]:
        raw = self.pager.read(_HEADER_PAGE)
        magic, root, first, last, leaves, height, entries = _HDR.unpack_from(raw)
        if magic != _HDR_MAGIC:
            raise PageError(f"{self.name!r}: bad tree header magic {magic!r}")
        return root, first, last, leaves, height, entries

    def _set_header(self, root: int, first: int, last: int, leaves: int,
                    height: int, entries: int) -> None:
        self._root = root
        self._first_leaf = first
        self._last_leaf = last
        self._num_leaves = leaves
        self._height = height
        self._num_entries = entries

    # ------------------------------------------------------------------
    # Page decoding (the buffer pool decodes on a miss)
    # ------------------------------------------------------------------
    def decode_page(self, page_id: int, raw: bytes):
        kind = raw[0]
        if kind == _PAGE_LEAF:
            _, prev, nxt, count = _LEAF_HDR.unpack_from(raw)
            node = LeafNode(page_id, prev, nxt)
            pos = _LEAF_HDR.size
            for _ in range(count):
                klen, flags, vlen = _LEAF_ENTRY.unpack_from(raw, pos)
                pos += _LEAF_ENTRY.size
                node.keys.append(raw[pos:pos + klen])
                pos += klen
                node.values.append(raw[pos:pos + vlen])
                pos += vlen
                node.flags.append(flags)
            return node
        if kind == _PAGE_BRANCH:
            _, nkeys = _BRANCH_HDR.unpack_from(raw)
            node = BranchNode(page_id)
            pos = _BRANCH_HDR.size
            for _ in range(nkeys + 1):
                node.children.append(_CHILD.unpack_from(raw, pos)[0])
                pos += _CHILD.size
            for _ in range(nkeys):
                (klen,) = _KLEN.unpack_from(raw, pos)
                pos += _KLEN.size
                node.keys.append(raw[pos:pos + klen])
                pos += klen
            return node
        if kind == _PAGE_OVERFLOW:
            _, nxt, length = _OVF_HDR.unpack_from(raw)
            start = _OVF_HDR.size
            return OverflowNode(page_id, nxt, raw[start:start + length])
        raise CorruptPageError(
            f"{self.name!r}: unknown page type 0x{kind:02x} on page "
            f"{page_id}"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self._height

    @property
    def num_leaves(self) -> int:
        return self._num_leaves

    def __len__(self) -> int:
        return self._num_entries

    def fences(self) -> List[bytes]:
        """The first key of every leaf after the first, in key order:
        the keys at which a scan reads its next leaf. A load keeps them
        as it writes the leaves; a tree opened from its file reads them
        once from its branch pages (every separator is a leaf's first
        key, and each is stored once), never from a leaf."""
        if self._fences is None:
            keys: List[bytes] = []
            level = [self._root]
            for _ in range(self._height - 1):
                nodes = [self.pool.get(self, page) for page in level]
                keys += [key for node in nodes for key in node.keys]
                level = [child for node in nodes for child in node.children]
            self._fences = sorted(keys)
        return self._fences

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def _check_key(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise StorageError(f"keys must be bytes, got {type(key).__name__}")
        if len(key) > self.max_key:
            raise StorageError(
                f"key of {len(key)} bytes exceeds the {self.max_key}-byte "
                f"limit for {self.page_size}-byte pages"
            )

    def _descend(self, key: bytes) -> LeafNode:
        """The leaf that owns ``key``."""
        root = self._root
        node = self.pool.get(self, root) if root else _NO_LEAF
        while isinstance(node, BranchNode):
            node = self.pool.get(self, node.children[
                bisect_right(node.keys, key)])
        return node

    def get(self, key: bytes) -> Optional[bytes]:
        """The value stored under ``key``, or None."""
        self._check_key(key)
        leaf = self._descend(key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return self._load_value(leaf, i)
        return None

    # ------------------------------------------------------------------
    # Overflow values
    # ------------------------------------------------------------------
    def _spill(self, pager: Pager, value: bytes) -> bytes:
        """Write ``value`` to a new overflow chain, last page first (each
        page links to the next); returns the leaf's pointer to it."""
        chunk = self.page_size - _OVF_HDR.size
        nxt = 0
        for start in range(((len(value) - 1) // chunk) * chunk, -1, -chunk):
            page_id = pager.allocate()
            data = value[start:start + chunk]
            pager.write(page_id, _OVF_HDR.pack(_PAGE_OVERFLOW, nxt,
                                               len(data)) + data)
            nxt = page_id
        return _OVF_PTR.pack(nxt, len(value))

    def _load_value(self, leaf: LeafNode, slot: int) -> bytes:
        if not leaf.flags[slot] & _FLAG_SPILLED:
            return leaf.values[slot]
        page_id, total = _OVF_PTR.unpack(leaf.values[slot])
        parts: List[bytes] = []
        while page_id:
            node = self.pool.get(self, page_id)
            parts.append(node.data)
            page_id = node.next
        value = b"".join(parts)
        if len(value) != total:
            raise CorruptPageError(
                f"{self.name!r}: overflow chain yielded {len(value)} bytes, "
                f"expected {total}"
            )
        return value

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, items: Entries) -> int:
        """Build the tree bottom-up from sorted ``(key, value)`` pairs,
        or from the sorted entries of :class:`FixedRows`.

        Packs leaves full, links them, then builds each branch level
        from the one below, and commits. The tree must be empty (or
        have no file yet). Keys must be strictly increasing: an equal
        adjacent key raises. Returns the number of entries loaded.
        """
        if self._num_entries:
            raise StorageError(
                f"bulk_load needs an empty tree; {self.name!r} has "
                f"{self._num_entries} entries"
            )
        return self._load(items)

    def rewrite(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Replace the tree's whole contents with ``(key, value)`` pairs
        in strictly increasing key order.

        Bulk-loads ``items`` into a new file and renames it over the
        tree's, so a crash leaves either the old contents or the new
        ones. The input is checked in full before any page is written.
        Returns the number of entries written. A failure before the
        rename (an I/O error) leaves the old contents in place, readable
        and ready for a later rewrite.
        """
        items = list(items)
        self._check_entries(None, *_split(items))
        return self._load(items)

    def _check_entry(self, prev_key: Optional[bytes], key: bytes,
                     value: bytes) -> None:
        """Fail on a bad key or value, or on ``key`` not sorting after
        the previous entry's ``prev_key`` (None for the first entry)."""
        self._check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise StorageError(
                f"values must be bytes, got {type(value).__name__}")
        if prev_key is not None and key <= prev_key:
            raise StorageError(
                f"{self.name!r}: input is not strictly sorted "
                f"({prev_key!r} followed by {key!r})"
            )

    def _check_entries(self, prev_key: Optional[bytes],
                       keys: Sequence[bytes], values: Sequence[bytes]
                       ) -> None:
        """:meth:`_check_entry` over consecutive entries: a pass over
        the whole run finds whether any entry is bad, and only then are
        they checked one by one, so the first bad entry raises its own
        error."""
        if _all_bytes(keys) and _all_bytes(values) and \
                max(map(len, keys), default=0) <= self.max_key and \
                not any(map(operator.le, keys[1:], keys[:-1])) and \
                (prev_key is None or not keys or keys[0] > prev_key):
            return
        for key, value in zip(keys, values):
            self._check_entry(prev_key, key, value)
            prev_key = key

    def _load(self, items: Entries) -> int:
        """Write the sorted ``items`` (checking them on the way) as a
        new file beside the tree's, then commit it: fsync, rename it
        over the tree's file, fsync the directory.

        A failure before the rename abandons the new file and leaves
        the tree as it was. Once the rename is done the tree reads the
        new file, even if the directory fsync then raises.
        """
        pager = Pager(self.path + _SIBLING_SUFFIX, page_size=self.page_size,
                      stats=self.stats, create=True, faults=self.faults)
        try:
            header, fences = self._write_tree(pager, items)
            pager.sync()
            pager.rename(self.path)
        except BaseException:
            pager.close()
            raise
        old, self.pager = self.pager, pager
        self.pool.discard(self)
        self._set_header(*header)
        self._fences = fences
        if old is not None:
            old.close()
        pager.sync_directory()
        return self._num_entries

    def _write_tree(self, pager: Pager, items: Entries
                    ) -> Tuple[Tuple[int, int, int, int, int, int],
                               List[bytes]]:
        """Write header, leaves, overflow chains and branch levels of a
        tree holding ``items`` to a new file; returns the header and the
        tree's :meth:`fences`.

        Each leaf is written once the next one's page id is known, so
        that it can link to it."""
        if pager.allocate() != _HEADER_PAGE:
            raise StorageError("tree header must be the first page")
        leaves = (self._row_leaves if isinstance(items, FixedRows)
                  else self._pair_leaves)(pager, items)
        seps: List[Tuple[bytes, int]] = []  # each leaf's first key, page
        count = 0
        pending = None  # (page id, prev, entries, body) of the last leaf
        for page_id, key, entries, body in leaves:
            if pending is not None:
                self._write_leaf(pager, pending, page_id)
            pending = (page_id, seps[-1][1] if seps else 0, entries, body)
            seps.append((key, page_id))
            count += entries
        if pending is None:  # empty input: an empty root leaf
            pending = (pager.allocate(), 0, 0, b"")
            seps.append((b"", pending[0]))
        self._write_leaf(pager, pending, 0)

        first_leaf, last_leaf, num_leaves = seps[0][1], seps[-1][1], len(seps)
        fences = [key for key, _ in seps[1:]]
        height = 1
        while len(seps) > 1:
            seps = self._build_branch_level(pager, seps)
            height += 1
        header = (seps[0][1], first_leaf, last_leaf, num_leaves, height,
                  count)
        pager.write(_HEADER_PAGE, _HDR.pack(_HDR_MAGIC, *header))
        return header, fences

    @staticmethod
    def _write_leaf(pager: Pager, leaf: Tuple[int, int, int, bytes],
                    nxt: int) -> None:
        page_id, prev, entries, body = leaf
        pager.write(page_id,
                    _LEAF_HDR.pack(_PAGE_LEAF, prev, nxt, entries) + body)

    def _leaf_cuts(self, sizes: np.ndarray, final: bool) -> List[int]:
        """Where the leaves of a run of entries of ``sizes`` bytes start,
        then where the last one ends: each leaf takes the entries that
        follow while they fit, and at least one. Unless ``final``, the
        last leaf could still take entries that come after the run, so
        it is left out and its first entry ends the list."""
        ends = np.cumsum(sizes)
        room = self._leaf_room
        cuts = [0]
        while cuts[-1] < len(sizes):
            at = cuts[-1]
            fits = int(ends.searchsorted((ends[at - 1] if at else 0) + room,
                                         "right"))
            cuts.append(max(at + 1, fits))
        if not final:
            cuts.pop()
        return cuts

    def _pair_leaves(self, pager: Pager,
                     items: Iterable[Tuple[bytes, bytes]]
                     ) -> Iterator[Tuple[int, bytes, int, bytes]]:
        """``(page id, first key, entries, body)`` per leaf of the sorted
        ``(key, value)`` pairs, ``_BATCH`` pairs read at a time. A body
        is the leaf's entries serialised back to back; values above
        ``max_inline`` go to overflow chains, allocated in entry order
        around the leaf's own page."""
        items = iter(items)
        keys: List[bytes] = []
        values: List[bytes] = []
        last: Optional[bytes] = None
        while True:
            batch = list(islice(items, _BATCH))
            final = len(batch) < _BATCH
            if batch:
                new_keys, new_values = _split(batch)
                self._check_entries(last, new_keys, new_values)
                last = new_keys[-1]
                keys += new_keys
                values += new_values
            n = len(keys)
            klens = np.fromiter(map(len, keys), np.int64, n)
            vlens = np.fromiter(map(len, values), np.int64, n)
            spilled = vlens > self.max_inline
            vlens[spilled] = _OVF_PTR.size
            parts: List[bytes] = [b""] * (3 * n)  # header, key, value each
            parts[0::3] = map(_LEAF_ENTRY.pack, klens.tolist(),
                              (spilled * _FLAG_SPILLED).tolist(),
                              vlens.tolist())
            parts[1::3] = keys
            parts[2::3] = values
            cuts = self._leaf_cuts(_LEAF_ENTRY.size + klens + vlens, final)
            any_spilled = spilled.any()
            for i, j in zip(cuts, cuts[1:]):
                spills = np.flatnonzero(spilled[i:j]).tolist() \
                    if any_spilled else []
                if spills and spills[0] == 0:
                    parts[3 * i + 2] = self._spill(pager, values[i])
                    spills.pop(0)
                page_id = pager.allocate()
                for at in spills:
                    parts[3 * (i + at) + 2] = self._spill(pager,
                                                          values[i + at])
                yield page_id, keys[i], j - i, b"".join(parts[3 * i:3 * j])
            del keys[:cuts[-1]], values[:cuts[-1]]
            if final:
                return

    def _row_leaves(self, pager: Pager, items: FixedRows
                    ) -> Iterator[Tuple[int, bytes, int, bytes]]:
        """:meth:`_pair_leaves` of fixed-width rows: each batch of rows
        gets the entry header as leading columns and is serialised in
        one piece, and each leaf's body is one slice of it."""
        rows, key_width = items
        if not isinstance(rows, np.ndarray) or rows.dtype != np.uint8 or \
                rows.ndim != 2 or not 0 < key_width <= rows.shape[1]:
            raise StorageError(
                "fixed-width rows must be a 2-D uint8 array with a key "
                "width between 1 and the row width")
        n, value_width = rows.shape[0], rows.shape[1] - key_width
        if n:
            self._check_key(rows[0, :key_width].tobytes())
        if value_width > self.max_inline:
            raise StorageError(
                f"fixed-width values of {value_width} bytes exceed the "
                f"{self.max_inline}-byte inline limit")
        head = _LEAF_ENTRY.size
        size = head + rows.shape[1]
        header = np.frombuffer(_LEAF_ENTRY.pack(key_width, 0, value_width),
                               dtype=np.uint8)
        per_leaf = max(1, self._leaf_room // size)
        step = per_leaf * max(2, _BATCH // per_leaf)  # whole leaves, two+
        lo = 0
        while lo < n:
            hi = min(lo + step, n)
            keys = np.ascontiguousarray(rows[max(lo - 1, 0):hi, :key_width])
            order = keys.view(f"S{key_width}").reshape(-1)
            bad = np.flatnonzero(order[1:] <= order[:-1])
            if len(bad):
                self._check_entry(keys[bad[0]].tobytes(),
                                  keys[bad[0] + 1].tobytes(), b"")
            block = np.empty((hi - lo, size), dtype=np.uint8)
            block[:, :head] = header
            block[:, head:] = rows[lo:hi]
            body = block.tobytes()
            cuts = self._leaf_cuts(np.full(hi - lo, size), hi == n)
            for i, j in zip(cuts, cuts[1:]):
                at = i * size + head
                yield (pager.allocate(), body[at:at + key_width], j - i,
                       body[i * size:j * size])
            lo += cuts[-1]

    def _build_branch_level(
        self, pager: Pager, children: List[Tuple[bytes, int]]
    ) -> List[Tuple[bytes, int]]:
        """Write one level of branch pages over ``children`` (first key
        and page id of each node below); returns the level's own."""
        target = self.page_size - _BRANCH_HDR.size - _CHILD.size
        out: List[Tuple[bytes, int]] = []
        keys: List[bytes] = []
        kids: List[int] = []
        size = 0

        def write() -> None:
            pager.write(out[-1][1], b"".join(
                [_BRANCH_HDR.pack(_PAGE_BRANCH, len(keys))]
                + [_CHILD.pack(child) for child in kids]
                + [_KLEN.pack(len(key)) + key for key in keys]))

        for key, child in children:
            entry = _KLEN.size + len(key) + _CHILD.size
            if not out or size + entry > target:
                if out:
                    write()
                out.append((key, pager.allocate()))
                keys, kids = [], [child]
                size = _BRANCH_HDR.size + _CHILD.size
            else:
                keys.append(key)
                kids.append(child)
                size += entry
        if out:
            write()
        return out

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def leaves(self, key: Optional[bytes] = None) -> Iterator[LeafNode]:
        """The leaf that owns ``key`` (the first leaf when None), then
        each sibling in key order. A leaf is read when the iteration
        reaches it, so a scan costs the descent and then one logical
        read per leaf. A leaf holds no pin: the pool may evict it while
        the caller works through it."""
        if key is None:
            first = self._first_leaf
            leaf = self.pool.get(self, first) if first else _NO_LEAF
        else:
            self._check_key(key)
            leaf = self._descend(key)
        while True:
            yield leaf
            if not leaf.next:
                return
            leaf = self.pool.get(self, leaf.next)

    def range_slices(self, lo: Optional[bytes] = None,
                     hi: Optional[bytes] = None
                     ) -> Iterator[Tuple[LeafNode, int, int]]:
        """``(leaf, i, j)`` for each leaf holding entries with ``lo <=
        key < hi`` (no bound when None): its slots ``i .. j - 1``. The
        next leaf is read only when the range runs to the end of the
        one before it."""
        for leaf in self.leaves(lo):
            keys = leaf.keys
            i = 0 if lo is None else bisect_left(keys, lo)
            j = len(keys) if hi is None else bisect_left(keys, hi, i)
            if i < j:
                yield leaf, i, j
            if j < len(keys):
                return

    def run_values(self, lo: bytes, hi: bytes,
                   count: int) -> Iterator[List[bytes]]:
        """The values of the ``count`` entries with ``lo <= key < hi``,
        a leaf's slice at a time: one descent to ``lo``, then one read
        per further leaf. It stops once it has ``count`` values, so a run
        that ends on a leaf's last key reads no further. Keys are
        unique, so a range holding fewer entries has lost some, and
        raises :class:`StorageError`."""
        if count <= 0:
            return
        for leaf, i, j in self.range_slices(lo, hi):
            j = min(j, i + count)
            if any(leaf.flags[i:j]):  # spilled is the only flag
                yield [self._load_value(leaf, slot) for slot in range(i, j)]
            else:
                yield leaf.values[i:j]
            count -= j - i
            if not count:
                return
        raise StorageError(
            f"{self.name!r}: {count} entries missing from the range "
            f"[{lo!r}, {hi!r})")

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        return self.range_items(None, None)

    def range_items(
        self,
        lo: Optional[bytes] = None,
        hi: Optional[bytes] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key, value)`` with ``lo <= key < hi`` in key order."""
        for leaf, i, j in self.range_slices(lo, hi):
            for slot in range(i, j):
                yield leaf.keys[slot], self._load_value(leaf, slot)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check(self):
        """Deep structural verification; returns a
        :class:`~repro.storage.fsck.CheckReport`."""
        from .fsck import check_tree

        return check_tree(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.pager is not None and not self.pager.closed:
            self.pool.discard(self)
            self.pager.close()
