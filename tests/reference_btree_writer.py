"""The per-entry B+ tree writer, kept as a byte oracle.

This is how ``BTree`` once wrote a tree: one entry at a time, each
checked, its value spilled to an overflow chain when it is longer than
a quarter page, and appended to a growing leaf that is written out when
the next entry no longer fits. ``BTree._write_tree`` packs whole
leaves from arrays instead, and must write the same file byte for byte
and raise the same errors, an equal adjacent key among them. Install it on a tree with
``use_reference_writer(tree)``; ``bulk_load`` and ``rewrite`` then
write through it. ``use_reference_writer(tree, strict=False)`` skips
the key-order check, so a test can write a tree that holds an equal
adjacent key and see ``fsck`` report it.
"""

import struct
import types

from repro.errors import StorageError

_HEADER_PAGE = 1
_HDR_MAGIC = b"CALB"
_HDR = struct.Struct(">4sIIIIHQ")
_PAGE_LEAF = 0x01
_PAGE_BRANCH = 0x02
_PAGE_OVERFLOW = 0x03
_LEAF_HDR = struct.Struct(">BIIH")
_LEAF_ENTRY = struct.Struct(">HBI")
_BRANCH_HDR = struct.Struct(">BH")
_CHILD = struct.Struct(">I")
_KLEN = struct.Struct(">H")
_OVF_HDR = struct.Struct(">BIH")
_OVF_PTR = struct.Struct(">IQ")
_FLAG_SPILLED = 0x01


class _Leaf:
    def __init__(self, page_id, prev=0):
        self.page_id = page_id
        self.prev = prev
        self.next = 0
        self.entries = []
        self.size = _LEAF_HDR.size

    def encode(self):
        parts = [_LEAF_HDR.pack(_PAGE_LEAF, self.prev, self.next,
                                len(self.entries))]
        for key, value, flags in self.entries:
            parts.append(_LEAF_ENTRY.pack(len(key), flags, len(value)))
            parts.append(key)
            parts.append(value)
        return b"".join(parts)


def _store_value(tree, pager, value):
    if len(value) <= tree.max_inline:
        return value, 0
    chunk = tree.page_size - _OVF_HDR.size
    nxt = 0
    for start in range(((len(value) - 1) // chunk) * chunk, -1, -chunk):
        page_id = pager.allocate()
        data = value[start:start + chunk]
        pager.write(page_id,
                    _OVF_HDR.pack(_PAGE_OVERFLOW, nxt, len(data)) + data)
        nxt = page_id
    return _OVF_PTR.pack(nxt, len(value)), _FLAG_SPILLED


def _build_branch_level(tree, pager, children):
    target = tree.page_size - _BRANCH_HDR.size - _CHILD.size
    out = []
    node = None

    def write(node):
        page_id, keys, kids, _ = node
        parts = [_BRANCH_HDR.pack(_PAGE_BRANCH, len(keys))]
        parts.extend(_CHILD.pack(child) for child in kids)
        for key in keys:
            parts.append(_KLEN.pack(len(key)))
            parts.append(key)
        pager.write(page_id, b"".join(parts))

    for key, child in children:
        entry = _KLEN.size + len(key) + _CHILD.size
        if node is None or node[3] + entry > target:
            if node is not None:
                write(node)
            node = [pager.allocate(), [], [child],
                    _BRANCH_HDR.size + _CHILD.size]
            out.append((key, node[0]))
        else:
            node[1].append(key)
            node[2].append(child)
            node[3] += entry
    if node is not None:
        write(node)
    return out


def write_tree(tree, pager, items, strict=True):
    """Write header, leaves, overflow chains and branch levels of a
    tree holding ``items`` to a new file; returns the header and the
    first key of every leaf after the first."""
    if pager.allocate() != _HEADER_PAGE:
        raise StorageError("tree header must be the first page")
    target = tree.page_size - _LEAF_HDR.size
    leaf = None
    pending = None
    seps = []
    first_leaf = last_leaf = 0
    count = 0
    prev_key = None

    def emit(nxt):
        nonlocal pending
        if pending is not None:
            pending.next = nxt
            pager.write(pending.page_id, pending.encode())
            pending = None

    for key, value in items:
        tree._check_entry(None, key, value)
        # Keys are unique: each must sort strictly after the last.
        if strict and prev_key is not None and key <= prev_key:
            raise StorageError(
                f"{tree.name!r}: input is not strictly sorted "
                f"({prev_key!r} followed by {key!r})")
        prev_key = key
        stored, flags = _store_value(tree, pager, value)
        entry = _LEAF_ENTRY.size + len(key) + len(stored)
        if leaf is None or leaf.size + entry > target:
            page_id = pager.allocate()
            new = _Leaf(page_id, prev=leaf.page_id if leaf else 0)
            emit(page_id)
            pending = new
            if leaf is None:
                first_leaf = page_id
            leaf = new
            seps.append((key, page_id))
            last_leaf = page_id
        leaf.entries.append((key, stored, flags))
        leaf.size += entry
        count += 1

    if leaf is None:  # empty input: an empty root leaf
        first_leaf = last_leaf = pager.allocate()
        pager.write(first_leaf, _Leaf(first_leaf).encode())
        seps.append((b"", first_leaf))
    emit(0)

    num_leaves = len(seps)
    fences = [key for key, _ in seps[1:]]
    height = 1
    while len(seps) > 1:
        seps = _build_branch_level(tree, pager, seps)
        height += 1
    header = (seps[0][1], first_leaf, last_leaf, num_leaves, height, count)
    pager.write(_HEADER_PAGE, _HDR.pack(_HDR_MAGIC, *header))
    return header, fences


def use_reference_writer(tree, strict=True):
    """Make ``tree`` write every later load through :func:`write_tree`;
    ``strict=False`` lets equal adjacent keys through."""
    tree._write_tree = types.MethodType(
        lambda self, pager, items: write_tree(self, pager, items, strict),
        tree)
    return tree
