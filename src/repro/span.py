"""Leaf-span resolution for range scans, read off the leaf-page chain as
the paper's scan does (Section 3.3): no whole-tree map, nothing to go stale."""

from __future__ import annotations

from typing import Optional

from .baselines.disk_btree import DiskBPlusTree
from .btree.keys import INVALID_PAGE_ID
from .core.cache_first import CacheFirstFpTree
from .core.disk_first import DiskFirstFpTree

__all__ = ["leaf_span", "first_key_of_leaf_page"]


def first_key_of_leaf_page(tree, pid: int) -> Optional[int]:
    """Smallest key stored in a leaf page, or ``None`` if it holds no entries."""
    if isinstance(tree, DiskBPlusTree):  # covers micro-indexing
        page = tree.store.page(pid)
        return int(page.keys[0]) if page.count else None
    if isinstance(tree, DiskFirstFpTree):
        return tree.store.page(pid).first_key()
    if isinstance(tree, CacheFirstFpTree):
        leaves = tree._page_leaves_in_order(tree.store.page(pid))
        return next((int(node.keys[0]) for node in leaves if node.count), None)
    raise TypeError(f"unsupported tree type {type(tree)!r}")


def leaf_span(
    tree, start_key: int, end_key: int, following: int = 0
) -> tuple[list[int], list[int]]:
    """Leaf pages covering ``[start_key, end_key]``, plus up to ``following``
    chain pages after them (the overshooting ablation's prefetch targets).

    The span runs from the last leaf whose first key is ``<= start_key``
    (the chain head if none) to the last whose first key is ``<= end_key``.
    A leaf emptied by deletes has no first key and is skipped in those
    comparisons: it never starts a span, and sits inside one only before
    a non-empty leaf in range.
    """
    disk_like = isinstance(tree, DiskBPlusTree)
    prev_link, next_link = ("prev_leaf", "next_leaf") if disk_like else ("prev_page", "next_page")

    def step(pid: int, link: str) -> Optional[int]:
        neighbour = getattr(tree.store.page(pid), link)
        return None if neighbour == INVALID_PAGE_ID else int(neighbour)

    def starts_by(pid: int, key: int) -> bool:
        first = first_key_of_leaf_page(tree, pid)
        return first is not None and first <= key

    lo = tree.page_path(start_key)[-1]
    while not starts_by(lo, start_key) and (prev := step(lo, prev_link)) is not None:
        lo = prev  # left, off empty leaves and leaves starting past start_key
    span, empties = [lo], []
    pid = step(lo, next_link)
    while pid is not None:  # right: a leaf still starting by start_key restarts the span
        key = first_key_of_leaf_page(tree, pid)
        if key is None:
            empties.append(pid)
        elif key <= start_key:
            span, empties = [pid], []
        elif key <= end_key:
            span += empties + [pid]
            empties = []
        else:
            break
        pid = step(pid, next_link)
    tail: list[int] = []
    pid = step(span[-1], next_link)
    while pid is not None and len(tail) < following:
        tail.append(pid)
        pid = step(pid, next_link)
    return span, tail
