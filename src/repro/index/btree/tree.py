"""Paged B⁺-Tree.

The baseline index of the paper's evaluation: alphanumerically sorted,
updated **in place** (dirty node pages become random writes at buffer
eviction — the write-amplification B-Trees pay under high update rates),
duplicate keys allowed, deletion is lazy (no rebalancing, like PostgreSQL).

Besides secondary-index use ((key → ref) entries), the tree supports
:meth:`upsert` for KV-store use (key → opaque value, replaced in place).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from ...buffer.pool import BufferPool
from ...errors import IndexError_
from ...storage.page import PAGE_HEADER_BYTES
from ...storage.pagefile import PageFile
from ..base import Index, IndexStats, Ref, key_in_range
from .node import InnerNode, LeafNode, inner_entry_bytes, leaf_entry_bytes
from ...types import Key


class BPlusTree(Index):
    """B⁺-Tree over the shared buffer pool."""

    def __init__(self, name: str, file: PageFile, pool: BufferPool,
                 *, value_bytes: int = 0) -> None:
        self.name = name
        self.file = file
        self.pool = pool
        #: accounted payload size added on top of key bytes per leaf entry
        #: (0 for plain refs; KV stores pass their value size estimate).
        self.value_bytes = value_bytes
        self.stats = IndexStats()
        self._capacity = file.page_size - PAGE_HEADER_BYTES
        self._root_page = file.allocate_page()
        self._height = 1
        self._entries = 0
        root = LeafNode()
        self.pool.put(file, self._root_page, root, dirty=True)

    # --------------------------------------------------------------- helpers

    def _node(self, page_no: int) -> LeafNode | InnerNode:
        node = self.pool.get_or_create(self.file, page_no, LeafNode)
        return node  # type: ignore[return-value]

    def _dirty(self, page_no: int) -> None:
        self.pool.mark_dirty(self.file, page_no)

    def _leaf_entry_bytes(self, key: Key) -> int:
        return leaf_entry_bytes(key) + self.value_bytes

    def _descend(self, key: Key,
                 for_insert: bool = False) -> tuple[list[int], LeafNode]:
        """Root-to-leaf path (page numbers); returns (path, leaf node).

        Reads descend with ``bisect_left`` so a run of duplicate keys is
        entered at its *first* leaf; inserts descend with ``bisect_right``
        and append at the end of the run.
        """
        bisect = bisect_right if for_insert else bisect_left
        path = [self._root_page]
        node = self._node(self._root_page)
        while isinstance(node, InnerNode):
            idx = bisect(node.keys, key)
            child = node.children[idx]
            path.append(child)
            node = self._node(child)
        return path, node

    def _leftmost_leaf_page(self) -> int:
        page_no = self._root_page
        node = self._node(page_no)
        while isinstance(node, InnerNode):
            page_no = node.children[0]
            node = self._node(page_no)
        return page_no

    # ------------------------------------------------------------------- DML

    def insert_entry(self, key: Key, ref: Ref) -> None:
        key = tuple(key)
        path, leaf = self._descend(key, for_insert=True)
        idx = bisect_right(leaf.keys, key)
        leaf.keys.insert(idx, key)
        leaf.payloads.insert(idx, ref)
        leaf.bytes_used += self._leaf_entry_bytes(key)
        self._dirty(path[-1])
        self._entries += 1
        self.stats.inserts += 1
        if leaf.bytes_used > self._capacity:
            self._split_leaf(path)

    def upsert(self, key: Key, value: object) -> bool:
        """KV semantics: replace the first entry for ``key`` in place,
        or insert a new entry.  Returns True if an entry was replaced.

        Upsert keys are unique, so the insert-style (bisect_right) descent
        lands exactly on the leaf holding the existing entry — a read-style
        descent could stop one leaf left of an entry equal to a separator.
        """
        key = tuple(key)
        path, leaf = self._descend(key, for_insert=True)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.payloads[idx] = value
            self._dirty(path[-1])
            return True
        leaf.keys.insert(idx, key)
        leaf.payloads.insert(idx, value)
        leaf.bytes_used += self._leaf_entry_bytes(key)
        self._dirty(path[-1])
        self._entries += 1
        self.stats.inserts += 1
        if leaf.bytes_used > self._capacity:
            self._split_leaf(path)
        return False

    def remove_entry(self, key: Key, ref: Ref) -> bool:
        key = tuple(key)
        path, leaf = self._descend(key)
        page_no = path[-1]
        while True:
            idx = bisect_left(leaf.keys, key)
            while idx < len(leaf.keys) and leaf.keys[idx] == key:
                if leaf.payloads[idx] == ref:
                    del leaf.keys[idx]
                    del leaf.payloads[idx]
                    leaf.bytes_used -= self._leaf_entry_bytes(key)
                    self._dirty(page_no)
                    self._entries -= 1
                    self.stats.removes += 1
                    return True
                idx += 1
            # duplicates may continue on the right sibling
            if (leaf.keys and leaf.keys[-1] > key) or leaf.next_page is None:
                return False
            page_no = leaf.next_page
            node = self._node(page_no)
            if not isinstance(node, LeafNode):
                raise IndexError_(f"{self.name}: sibling {page_no} not a leaf")
            leaf = node

    # ----------------------------------------------------------------- reads

    def search(self, key: Key) -> list[Ref]:
        key = tuple(key)
        self.stats.searches += 1
        refs: list[Ref] = []
        _path, leaf = self._descend(key)
        while True:
            idx = bisect_left(leaf.keys, key)
            while idx < len(leaf.keys) and leaf.keys[idx] == key:
                refs.append(leaf.payloads[idx])  # type: ignore[arg-type]
                idx += 1
            if idx < len(leaf.keys) or leaf.next_page is None:
                break
            nxt = self._node(leaf.next_page)
            if not isinstance(nxt, LeafNode):
                raise IndexError_(f"{self.name}: bad sibling link")
            if not nxt.keys or nxt.keys[0] != key:
                break
            leaf = nxt
        self.stats.entries_returned += len(refs)
        return refs

    def get(self, key: Key) -> object | None:
        """KV semantics: first payload for ``key`` or None."""
        refs = self.search(key)
        return refs[0] if refs else None

    def range_scan(self, lo: Key | None, hi: Key | None,
                   *, lo_incl: bool = True,
                   hi_incl: bool = True) -> Iterator[tuple[Key, Ref]]:
        self.stats.scans += 1
        if lo is not None:
            _path, leaf = self._descend(tuple(lo))
        else:
            leaf = self._node(self._leftmost_leaf_page())  # type: ignore[assignment]
        while True:
            for key, payload in zip(leaf.keys, leaf.payloads):
                if hi is not None and (key > hi or (not hi_incl and key == hi)):
                    return
                if key_in_range(key, lo, hi, lo_incl, hi_incl):
                    self.stats.entries_returned += 1
                    yield key, payload  # type: ignore[misc]
            if leaf.next_page is None:
                return
            nxt = self._node(leaf.next_page)
            if not isinstance(nxt, LeafNode):
                raise IndexError_(f"{self.name}: bad sibling link")
            leaf = nxt

    def entry_count(self) -> int:
        return self._entries

    # ---------------------------------------------------------------- splits

    def _split_leaf(self, path: list[int]) -> None:
        page_no = path[-1]
        leaf = self._node(page_no)
        assert isinstance(leaf, LeafNode)
        mid = len(leaf.keys) // 2
        right = LeafNode()
        right.keys = leaf.keys[mid:]
        right.payloads = leaf.payloads[mid:]
        del leaf.keys[mid:]
        del leaf.payloads[mid:]
        moved = sum(self._leaf_entry_bytes(k) for k in right.keys)
        right.bytes_used = moved
        leaf.bytes_used -= moved
        right.next_page = leaf.next_page
        right_page = self.file.allocate_page()
        leaf.next_page = right_page
        self.pool.put(self.file, right_page, right, dirty=True)
        self._dirty(page_no)
        self._insert_separator(path[:-1], right.keys[0], right_page, page_no)

    def _insert_separator(self, path: list[int], sep_key: Key,
                          right_page: int, left_page: int) -> None:
        if not path:
            # the split node was the root: grow the tree by one level
            new_root = InnerNode()
            new_root.keys = [sep_key]
            new_root.children = [left_page, right_page]
            new_root.bytes_used = inner_entry_bytes(sep_key)
            root_page = self.file.allocate_page()
            self.pool.put(self.file, root_page, new_root, dirty=True)
            self._root_page = root_page
            self._height += 1
            return
        parent_page = path[-1]
        parent = self._node(parent_page)
        assert isinstance(parent, InnerNode)
        idx = bisect_right(parent.keys, sep_key)
        parent.keys.insert(idx, sep_key)
        parent.children.insert(idx + 1, right_page)
        parent.bytes_used += inner_entry_bytes(sep_key)
        self._dirty(parent_page)
        if parent.bytes_used > self._capacity:
            self._split_inner(path)

    def _split_inner(self, path: list[int]) -> None:
        page_no = path[-1]
        node = self._node(page_no)
        assert isinstance(node, InnerNode)
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = InnerNode()
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        del node.keys[mid:]
        del node.children[mid + 1:]
        right.bytes_used = sum(inner_entry_bytes(k) for k in right.keys)
        node.bytes_used = sum(inner_entry_bytes(k) for k in node.keys)
        right_page = self.file.allocate_page()
        self.pool.put(self.file, right_page, right, dirty=True)
        self._dirty(page_no)
        self._insert_separator(path[:-1], sep_key, right_page, page_no)

    def __repr__(self) -> str:
        return (f"BPlusTree({self.name!r}, entries={self._entries}, "
                f"height={self._height})")
