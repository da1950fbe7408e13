"""Deep integrity verification for trees and whole environments.

``fsck`` answers the question recovery tests have to ask after every
simulated crash: *is what's on disk actually a B+ tree, and does every
page belong to somebody?* Two layers:

- :func:`check_tree` walks one tree from its header — structure (page
  types where the descent expects them, uniform leaf depth), strict
  key order (within nodes, across separators, along the whole leaf
  chain: keys are unique),
  sibling links (``prev``/``next`` mutually consistent, chain endpoints
  match the header, chain membership equals descent membership),
  overflow chains (length, no sharing), and header counters
  (``num_entries``, ``num_leaves``, ``height``).
- :func:`fsck_environment` runs :func:`check_tree` on every tree file
  of a :class:`~repro.storage.env.StorageEnvironment`, then audits each
  file's page accounting — every allocated page must be reachable, or
  is flagged as leaked — plus a checksum sweep that physically re-reads
  every page so any corrupt frame is *reported*, never silently
  decoded. A file an older version wrote may still carry a free list:
  its unreachable pages are counted as reclaimable, not leaked, and the
  file's next rewrite drops them.

All checks read through the pager (physical reads, checksum-verified)
rather than the buffer pool, so an fsck never perturbs cache state.
A tree file is complete whenever it exists (it is renamed into place
only after it is written and fsynced), so fsck reads committed files
only. Problems are collected, not raised — a report with a torn page
and a broken sibling link names both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import StorageError
from .btree import (
    _FLAG_SPILLED,
    _HEADER_PAGE,
    _OVF_PTR,
    BranchNode,
    BTree,
    LeafNode,
    OverflowNode,
)

__all__ = ["CheckReport", "FsckReport", "check_tree", "fsck_environment"]


@dataclass
class CheckReport:
    """One tree's deep-check result."""

    tree: str
    errors: List[str] = field(default_factory=list)
    entries: int = 0
    leaves: int = 0
    branches: int = 0
    overflow_pages: int = 0
    #: Every page the tree owns, header included.
    reachable: Set[int] = field(default_factory=set)

    @property
    def clean(self) -> bool:
        return not self.errors

    def render(self) -> str:
        head = (f"tree {self.tree!r}: {self.entries} entries, "
                f"{self.leaves} leaves, {self.branches} branches, "
                f"{self.overflow_pages} overflow pages")
        if self.clean:
            return head + " — clean"
        return head + "\n" + "\n".join(f"  ERROR: {e}" for e in self.errors)


@dataclass
class FsckReport:
    """A whole environment's verification result."""

    path: str
    trees: Dict[str, CheckReport] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    pages_checked: int = 0
    #: Unreachable pages of files whose meta still names an older
    #: version's free list: not errors; the next rewrite drops them.
    reclaimable_pages: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors and all(
            t.clean for t in self.trees.values()
        )

    def all_errors(self) -> List[str]:
        out = list(self.errors)
        for name in sorted(self.trees):
            out.extend(f"{name}: {e}" for e in self.trees[name].errors)
        return out

    def render(self) -> str:
        lines = [f"fsck {self.path}"]
        for name in sorted(self.trees):
            lines.append("  " + self.trees[name].render().replace(
                "\n", "\n  "))
        lines.append(f"  {self.pages_checked} pages checksum-swept, "
                     f"{self.reclaimable_pages} reclaimable")
        for err in self.errors:
            lines.append(f"  ERROR: {err}")
        lines.append("status: " + ("clean" if self.clean else
                                   f"{len(self.all_errors())} error(s)"))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# One tree
# ----------------------------------------------------------------------

def _read_node(tree: BTree, page_id: int, report: CheckReport):
    """Physically read and decode one page; errors are recorded, not
    raised, so one bad page doesn't hide the rest."""
    try:
        return tree.decode_page(page_id, tree.pager.read(page_id))
    except StorageError as exc:
        report.errors.append(f"page {page_id}: {exc}")
        return None


def _check_overflow(tree: BTree, stored: bytes,
                    report: CheckReport) -> None:
    try:
        first, total = _OVF_PTR.unpack(stored)
    except Exception:
        report.errors.append("unparseable overflow pointer")
        return
    got = 0
    page_id = first
    while page_id:
        if page_id in report.reachable:
            report.errors.append(
                f"overflow page {page_id} referenced twice"
            )
            return
        node = _read_node(tree, page_id, report)
        if not isinstance(node, OverflowNode):
            if node is not None:
                report.errors.append(
                    f"overflow chain hit a {type(node).__name__} at page "
                    f"{page_id}"
                )
            return
        report.reachable.add(page_id)
        report.overflow_pages += 1
        got += len(node.data)
        page_id = node.next
    if got != total:
        report.errors.append(
            f"overflow chain from page {first} holds {got} bytes, "
            f"pointer promises {total}"
        )


def _walk(tree: BTree, page_id: int, depth: int, lo: Optional[bytes],
          hi: Optional[bytes], report: CheckReport,
          leaves_seen: List[Tuple[int, int]]) -> None:
    """Recursive descent: structure, separator bounds, depth uniformity.

    Keys are unique, so every order is strict: within a page, and
    against the separators, which bound every key in this subtree from
    ``lo`` (inclusive: a separator is its right child's first key) up to
    ``hi`` (exclusive).
    """
    if page_id in report.reachable:
        report.errors.append(f"page {page_id} reachable twice")
        return
    node = _read_node(tree, page_id, report)
    if node is None:
        return
    report.reachable.add(page_id)
    if isinstance(node, OverflowNode):
        report.errors.append(
            f"descent reached an overflow page at {page_id}"
        )
        return
    keys = node.keys
    for i in range(1, len(keys)):
        if keys[i] <= keys[i - 1]:
            report.errors.append(
                f"page {page_id}: keys not strictly increasing at slot {i}"
            )
            break
    if keys:
        if lo is not None and keys[0] < lo:
            report.errors.append(
                f"page {page_id}: key below its separator bound"
            )
        if hi is not None and keys[-1] >= hi:
            report.errors.append(
                f"page {page_id}: key above its separator bound"
            )
    if isinstance(node, BranchNode):
        report.branches += 1
        if depth + 1 >= tree.height:
            report.errors.append(
                f"branch page {page_id} at leaf depth {depth}"
            )
            return
        if len(node.children) != len(keys) + 1:
            report.errors.append(
                f"branch page {page_id}: {len(node.children)} children "
                f"for {len(keys)} keys"
            )
            return
        for i, child in enumerate(node.children):
            child_lo = keys[i - 1] if i > 0 else lo
            child_hi = keys[i] if i < len(keys) else hi
            _walk(tree, child, depth + 1, child_lo, child_hi, report,
                  leaves_seen)
    else:
        report.leaves += 1
        if depth != tree.height - 1:
            report.errors.append(
                f"leaf page {page_id} at depth {depth}, expected "
                f"{tree.height - 1}"
            )
        report.entries += len(keys)
        leaves_seen.append((page_id, len(keys)))
        for stored, flags in zip(node.values, node.flags):
            if flags & _FLAG_SPILLED:
                _check_overflow(tree, stored, report)


def _check_leaf_chain(tree: BTree, descent_leaves: Set[int],
                      report: CheckReport) -> None:
    """Follow the sibling links end to end; must visit exactly the
    descent's leaves, in globally sorted key order."""
    seen: Set[int] = set()
    prev_id = 0
    prev_last_key: Optional[bytes] = None
    page_id = tree._first_leaf
    while page_id:
        if page_id in seen:
            report.errors.append(f"leaf chain cycle at page {page_id}")
            return
        seen.add(page_id)
        node = _read_node(tree, page_id, report)
        if not isinstance(node, LeafNode):
            report.errors.append(
                f"leaf chain hit a non-leaf at page {page_id}"
            )
            return
        if node.prev != prev_id:
            report.errors.append(
                f"leaf {page_id}: prev link {node.prev}, expected {prev_id}"
            )
        if node.keys and prev_last_key is not None \
                and node.keys[0] <= prev_last_key:
            report.errors.append(
                f"leaf {page_id}: first key does not sort after its left "
                "sibling's last key"
            )
        if node.keys:
            prev_last_key = node.keys[-1]
        prev_id = page_id
        page_id = node.next
    if prev_id != tree._last_leaf:
        report.errors.append(
            f"leaf chain ends at page {prev_id}, header says "
            f"{tree._last_leaf}"
        )
    if seen != descent_leaves:
        extra = sorted(seen - descent_leaves)
        missing = sorted(descent_leaves - seen)
        report.errors.append(
            f"leaf chain and descent disagree (chain-only: {extra}, "
            f"descent-only: {missing})"
        )


def check_tree(tree: BTree) -> CheckReport:
    """Deep-check one tree."""
    report = CheckReport(tree=tree.name)
    report.reachable.add(_HEADER_PAGE)
    leaves_seen: List[Tuple[int, int]] = []
    _walk(tree, tree._root, 0, None, None, report, leaves_seen)
    _check_leaf_chain(tree, {pid for pid, _ in leaves_seen}, report)
    if report.entries != len(tree):
        report.errors.append(
            f"header claims {len(tree)} entries, leaves hold "
            f"{report.entries}"
        )
    if report.leaves != tree.num_leaves:
        report.errors.append(
            f"header claims {tree.num_leaves} leaves, descent found "
            f"{report.leaves}"
        )
    return report


# ----------------------------------------------------------------------
# A whole environment
# ----------------------------------------------------------------------

def _audit_file(tree: BTree, check: CheckReport,
                report: FsckReport) -> None:
    """Leak detection and the checksum sweep for one tree's page file."""
    pager = tree.pager
    unreachable = [page_id for page_id in range(1, pager.num_pages)
                   if page_id not in check.reachable]
    if unreachable and pager.free_head:
        report.reclaimable_pages += len(unreachable)
    elif unreachable:
        report.errors.append(
            f"{tree.name}: {len(unreachable)} leaked page(s) "
            f"(unreachable): {unreachable[:8]}"
        )
    # Checksum sweep: every allocated page must physically read back.
    for page_id in range(1, pager.num_pages):
        try:
            pager.read(page_id)
        except StorageError as exc:
            report.errors.append(f"{tree.name}: sweep: {exc}")
        report.pages_checked += 1


def fsck_environment(env) -> FsckReport:
    """Verify every tree file of one environment."""
    report = FsckReport(path=env.path)
    for name in env.list_trees():
        try:
            tree = env.open_tree(name, create=False)
        except StorageError as exc:
            report.errors.append(f"{name}: cannot open: {exc}")
            continue
        check = check_tree(tree)
        report.trees[name] = check
        _audit_file(tree, check, report)
    return report
