"""B+ tree microbenchmark (Table III: "BTree").

"Searches for a value in a B+ tree.  Insert if absent, remove if found."
A complete B+ tree with leaf splits, internal splits, and rebalancing
deletes (borrow from sibling or merge), entirely in persistent memory.
Key shifting within nodes produces runs of small persistent stores;
structure manipulation (descent comparisons, shifts) dominates the
logging cost, which is why BTree shows the smallest gains in the paper's
Figure 6.

Node layout: ``is_leaf(8) | nkeys(8) | next(8) | keys | ptrs`` (with one
spare key/ptr slot for the momentary overflow between insert and split).
Leaf ``ptrs[i]`` points at a value block; internal ``ptrs[i]`` at a
child node.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from ..txn.runtime import PersistentMemory, ThreadAPI
from .base import CLAIM_BYTES, SetupAccessor, Workload
from .rng import thread_rng

MAX_PARTITIONS = 8
ORDER = 8  # max keys per node
MIN_KEYS = ORDER // 2

_IS_LEAF = 0
_NKEYS = 8
_NEXT = 16
_KEYS = 24
# One spare key/ptr slot: nodes overflow to ORDER+1 keys momentarily
# between insert and split.
_PTRS = _KEYS + 8 * (ORDER + 1)
NODE_SIZE = _PTRS + 8 * (ORDER + 2)

SEARCH_COMPUTE = 3  # instructions per key comparison


class BTreeWorkload(Workload):
    """Insert-if-absent / remove-if-found over a B+ tree."""

    name = "btree"
    paper_footprint = "256 MB"
    description = (
        "Searches for a value in a B+ tree. Insert if absent, remove if found."
    )

    def __init__(
        self,
        seed: int = 42,
        value_kind: str = "int",
        keys_per_partition: int = 16384,
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._roots_base = 0
        self._heap = None
        self._resident: list[bytearray] = []  # per partition, 1 per stored key

    # ------------------------------------------------------------------
    # Node field helpers
    # ------------------------------------------------------------------
    def _root_addr(self, part: int) -> int:
        return self._roots_base + part * 8

    def _is_leaf(self, acc, node: int) -> bool:
        return acc.read_word(node + _IS_LEAF) == 1

    def _nkeys(self, acc, node: int) -> int:
        return acc.read_word(node + _NKEYS)

    def _set_nkeys(self, acc, node: int, n: int) -> None:
        acc.write_word(node + _NKEYS, n)

    def _key(self, acc, node: int, i: int) -> int:
        return acc.read_word(node + _KEYS + 8 * i)

    def _set_key(self, acc, node: int, i: int, key: int) -> None:
        acc.write_word(node + _KEYS + 8 * i, key)

    def _ptr(self, acc, node: int, i: int) -> int:
        return acc.read_word(node + _PTRS + 8 * i)

    def _set_ptr(self, acc, node: int, i: int, ptr: int) -> None:
        acc.write_word(node + _PTRS + 8 * i, ptr)

    def _new_node(self, acc, is_leaf: bool) -> int:
        node = acc.alloc(NODE_SIZE)
        acc.write_word(node + _IS_LEAF, 1 if is_leaf else 0)
        self._set_nkeys(acc, node, 0)
        acc.write_word(node + _NEXT, 0)
        return node

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate per-partition roots and pre-populate half the keys.

        Builds the image and heap :meth:`insert` per key would leave:
        :func:`_build_insert` replays the insert and its splits on the
        device's word view, allocating value blocks and split nodes in
        the same order.
        """
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        self._roots_base = pm.heap.alloc(MAX_PARTITIONS * 8)
        for part in range(MAX_PARTITIONS):
            root = self._new_node(acc, is_leaf=True)
            acc.write_word(self._root_addr(part), root)
        self._resident = [
            bytearray(self.keys_per_partition) for _ in range(MAX_PARTITIONS)
        ]
        # Each allocation is claimed, a granule at a time, before the
        # builder writes it.
        heap_alloc = pm.heap.alloc
        words = acc.claim_words(0)
        claimed = 0

        def alloc(size: int) -> int:
            nonlocal claimed
            addr = heap_alloc(size)
            if addr + size > claimed:
                claimed = ((addr + size) | (CLAIM_BYTES - 1)) + 1
                acc.claim_words(claimed)
            return addr

        size = self.value_size
        rng = thread_rng(self.seed, 0xB7EE)
        for part in range(MAX_PARTITIONS):
            root = self._root_addr(part) >> 3
            resident = self._resident[part]
            for key in rng.sample(
                range(self.keys_per_partition), self.keys_per_partition // 2
            ):
                value = self.make_value(rng, key)
                block = alloc(size)
                words[block >> 3 : (block + size) >> 3] = memoryview(value).cast("Q")
                _build_insert(words, root, key, block, alloc)
                resident[key] = 1

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One insert-or-remove transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        resident = bytearray(self._resident[part])
        for txn in range(num_txns):
            key = rng.randrange(self.keys_per_partition)
            with api.transaction():
                if resident[key]:
                    self.delete(api, part, key)
                    resident[key] = 0
                else:
                    self.insert(api, part, key, self.make_value(rng, txn))
                    resident[key] = 1
            yield

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _find_leaf(self, acc, part: int, key: int) -> tuple:
        """Descend to the leaf for ``key``; returns (leaf, path).

        ``path`` is a list of (node, child_index) from the root down.
        """
        path = []
        node = acc.read_word(self._root_addr(part))
        while not self._is_leaf(acc, node):
            n = self._nkeys(acc, node)
            i = 0
            while i < n and key >= self._key(acc, node, i):
                acc.compute(SEARCH_COMPUTE)
                i += 1
            path.append((node, i))
            node = self._ptr(acc, node, i)
        return node, path

    def _leaf_pos(self, acc, leaf: int, key: int) -> tuple:
        """Position of ``key`` in ``leaf``; returns (index, found)."""
        n = self._nkeys(acc, leaf)
        for i in range(n):
            acc.compute(SEARCH_COMPUTE)
            leaf_key = self._key(acc, leaf, i)
            if leaf_key == key:
                return i, True
            if leaf_key > key:
                return i, False
        return n, False

    def lookup(self, acc, part: int, key: int) -> bytes:
        """Value stored for ``key`` or b'' (for tests)."""
        leaf, _path = self._find_leaf(acc, part, key)
        pos, found = self._leaf_pos(acc, leaf, key)
        if not found:
            return b""
        return acc.read(self._ptr(acc, leaf, pos), self.value_size)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, acc, part: int, key: int, value: bytes) -> bool:
        """Insert ``key``; returns False if already present."""
        leaf, path = self._find_leaf(acc, part, key)
        pos, found = self._leaf_pos(acc, leaf, key)
        if found:
            return False
        block = acc.alloc(self.value_size)
        acc.write(block, value)
        self._leaf_insert_at(acc, leaf, pos, key, block)
        if self._nkeys(acc, leaf) > ORDER:
            self._split_leaf(acc, part, leaf, path)
        return True

    def _leaf_insert_at(self, acc, leaf: int, pos: int, key: int, ptr: int) -> None:
        n = self._nkeys(acc, leaf)
        for i in range(n, pos, -1):
            self._set_key(acc, leaf, i, self._key(acc, leaf, i - 1))
            self._set_ptr(acc, leaf, i, self._ptr(acc, leaf, i - 1))
        self._set_key(acc, leaf, pos, key)
        self._set_ptr(acc, leaf, pos, ptr)
        self._set_nkeys(acc, leaf, n + 1)

    def _split_leaf(self, acc, part: int, leaf: int, path: list) -> None:
        n = self._nkeys(acc, leaf)
        half = n // 2
        new = self._new_node(acc, is_leaf=True)
        for i in range(half, n):
            self._set_key(acc, new, i - half, self._key(acc, leaf, i))
            self._set_ptr(acc, new, i - half, self._ptr(acc, leaf, i))
        self._set_nkeys(acc, new, n - half)
        self._set_nkeys(acc, leaf, half)
        acc.write_word(new + _NEXT, acc.read_word(leaf + _NEXT))
        acc.write_word(leaf + _NEXT, new)
        separator = self._key(acc, new, 0)
        self._insert_into_parent(acc, part, leaf, separator, new, path)

    def _insert_into_parent(
        self, acc, part: int, left: int, separator: int, right: int, path: list
    ) -> None:
        if not path:
            root = self._new_node(acc, is_leaf=False)
            self._set_nkeys(acc, root, 1)
            self._set_key(acc, root, 0, separator)
            self._set_ptr(acc, root, 0, left)
            self._set_ptr(acc, root, 1, right)
            acc.write_word(self._root_addr(part), root)
            return
        parent, index = path[-1]
        n = self._nkeys(acc, parent)
        for i in range(n, index, -1):
            self._set_key(acc, parent, i, self._key(acc, parent, i - 1))
            self._set_ptr(acc, parent, i + 1, self._ptr(acc, parent, i))
        self._set_key(acc, parent, index, separator)
        self._set_ptr(acc, parent, index + 1, right)
        self._set_nkeys(acc, parent, n + 1)
        if n + 1 > ORDER:
            self._split_internal(acc, part, parent, path[:-1])

    def _split_internal(self, acc, part: int, node: int, path: list) -> None:
        n = self._nkeys(acc, node)
        mid = n // 2
        up_key = self._key(acc, node, mid)
        new = self._new_node(acc, is_leaf=False)
        for i in range(mid + 1, n):
            self._set_key(acc, new, i - mid - 1, self._key(acc, node, i))
        for i in range(mid + 1, n + 1):
            self._set_ptr(acc, new, i - mid - 1, self._ptr(acc, node, i))
        self._set_nkeys(acc, new, n - mid - 1)
        self._set_nkeys(acc, node, mid)
        self._insert_into_parent(acc, part, node, up_key, new, path)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, acc, part: int, key: int) -> bool:
        """Remove ``key``; returns False if absent."""
        leaf, path = self._find_leaf(acc, part, key)
        pos, found = self._leaf_pos(acc, leaf, key)
        if not found:
            return False
        acc.free(self._ptr(acc, leaf, pos), self.value_size)
        self._remove_at(acc, leaf, pos, leaf_node=True)
        root = acc.read_word(self._root_addr(part))
        if leaf != root and self._nkeys(acc, leaf) < MIN_KEYS:
            self._rebalance(acc, part, leaf, path)
        return True

    def _remove_at(self, acc, node: int, pos: int, leaf_node: bool) -> None:
        n = self._nkeys(acc, node)
        for i in range(pos, n - 1):
            self._set_key(acc, node, i, self._key(acc, node, i + 1))
        if leaf_node:
            for i in range(pos, n - 1):
                self._set_ptr(acc, node, i, self._ptr(acc, node, i + 1))
        else:
            for i in range(pos + 1, n):
                self._set_ptr(acc, node, i, self._ptr(acc, node, i + 1))
        self._set_nkeys(acc, node, n - 1)

    def _rebalance(self, acc, part: int, node: int, path: list) -> None:
        parent, index = path[-1]
        leaf_node = self._is_leaf(acc, node)
        # Try borrowing from the left sibling.
        if index > 0:
            left = self._ptr(acc, parent, index - 1)
            if self._nkeys(acc, left) > MIN_KEYS:
                self._borrow_from_left(acc, parent, index, left, node, leaf_node)
                return
        # Try borrowing from the right sibling.
        nparent = self._nkeys(acc, parent)
        if index < nparent:
            right = self._ptr(acc, parent, index + 1)
            if self._nkeys(acc, right) > MIN_KEYS:
                self._borrow_from_right(acc, parent, index, node, right, leaf_node)
                return
        # Merge with a sibling.
        if index > 0:
            left = self._ptr(acc, parent, index - 1)
            self._merge(acc, parent, index - 1, left, node, leaf_node)
        else:
            right = self._ptr(acc, parent, index + 1)
            self._merge(acc, parent, index, node, right, leaf_node)
        root = acc.read_word(self._root_addr(part))
        if parent == root:
            if self._nkeys(acc, parent) == 0:
                new_root = self._ptr(acc, parent, 0)
                acc.write_word(self._root_addr(part), new_root)
                acc.free(parent, NODE_SIZE)
        elif self._nkeys(acc, parent) < MIN_KEYS:
            self._rebalance(acc, part, parent, path[:-1])

    def _borrow_from_left(
        self, acc, parent: int, index: int, left: int, node: int, leaf_node: bool
    ) -> None:
        ln = self._nkeys(acc, left)
        n = self._nkeys(acc, node)
        # Shift node right by one.
        for i in range(n, 0, -1):
            self._set_key(acc, node, i, self._key(acc, node, i - 1))
        limit = n if leaf_node else n + 1
        for i in range(limit, 0, -1):
            self._set_ptr(acc, node, i, self._ptr(acc, node, i - 1))
        if leaf_node:
            self._set_key(acc, node, 0, self._key(acc, left, ln - 1))
            self._set_ptr(acc, node, 0, self._ptr(acc, left, ln - 1))
            self._set_key(acc, parent, index - 1, self._key(acc, node, 0))
        else:
            self._set_key(acc, node, 0, self._key(acc, parent, index - 1))
            self._set_ptr(acc, node, 0, self._ptr(acc, left, ln))
            self._set_key(acc, parent, index - 1, self._key(acc, left, ln - 1))
        self._set_nkeys(acc, left, ln - 1)
        self._set_nkeys(acc, node, n + 1)

    def _borrow_from_right(
        self, acc, parent: int, index: int, node: int, right: int, leaf_node: bool
    ) -> None:
        n = self._nkeys(acc, node)
        if leaf_node:
            self._set_key(acc, node, n, self._key(acc, right, 0))
            self._set_ptr(acc, node, n, self._ptr(acc, right, 0))
            self._remove_at(acc, right, 0, leaf_node=True)
            self._set_key(acc, parent, index, self._key(acc, right, 0))
        else:
            rn = self._nkeys(acc, right)
            self._set_key(acc, node, n, self._key(acc, parent, index))
            self._set_ptr(acc, node, n + 1, self._ptr(acc, right, 0))
            self._set_key(acc, parent, index, self._key(acc, right, 0))
            for i in range(rn - 1):
                self._set_key(acc, right, i, self._key(acc, right, i + 1))
            for i in range(rn):
                self._set_ptr(acc, right, i, self._ptr(acc, right, i + 1))
            self._set_nkeys(acc, right, rn - 1)
        self._set_nkeys(acc, node, n + 1)

    def _merge(
        self, acc, parent: int, sep_index: int, left: int, right: int, leaf_node: bool
    ) -> None:
        ln = self._nkeys(acc, left)
        rn = self._nkeys(acc, right)
        if leaf_node:
            for i in range(rn):
                self._set_key(acc, left, ln + i, self._key(acc, right, i))
                self._set_ptr(acc, left, ln + i, self._ptr(acc, right, i))
            self._set_nkeys(acc, left, ln + rn)
            acc.write_word(left + _NEXT, acc.read_word(right + _NEXT))
        else:
            self._set_key(acc, left, ln, self._key(acc, parent, sep_index))
            for i in range(rn):
                self._set_key(acc, left, ln + 1 + i, self._key(acc, right, i))
            for i in range(rn + 1):
                self._set_ptr(acc, left, ln + 1 + i, self._ptr(acc, right, i))
            self._set_nkeys(acc, left, ln + rn + 1)
        self._remove_at(acc, parent, sep_index, leaf_node=False)
        acc.free(right, NODE_SIZE)

    # ------------------------------------------------------------------
    # Verification helpers (tests)
    # ------------------------------------------------------------------
    def all_keys(self, acc, part: int) -> list:
        """All keys in order, walking the leaf chain."""
        node = acc.read_word(self._root_addr(part))
        while not self._is_leaf(acc, node):
            node = self._ptr(acc, node, 0)
        keys = []
        while node != 0:
            for i in range(self._nkeys(acc, node)):
                keys.append(self._key(acc, node, i))
            node = acc.read_word(node + _NEXT)
        return keys

    def check_invariants(self, acc, part: int) -> None:
        """Validate sortedness and occupancy bounds."""
        keys = self.all_keys(acc, part)
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == len(set(keys)), "duplicate keys"
        root = acc.read_word(self._root_addr(part))
        self._check_node_bounds(acc, root, is_root=True)

    def _check_node_bounds(self, acc, node: int, is_root: bool) -> None:
        n = self._nkeys(acc, node)
        assert n <= ORDER, "node overflow"
        if not is_root:
            assert n >= (1 if self._is_leaf(acc, node) else 1), "node underflow"
        if not self._is_leaf(acc, node):
            for i in range(n + 1):
                self._check_node_bounds(acc, self._ptr(acc, node, i), is_root=False)


# ----------------------------------------------------------------------
# Set-up builder: the insert path on the device's word view
# ----------------------------------------------------------------------
# A node is referred to by its word index (address >> 3); the fields are
# words at these offsets, and pointers hold byte addresses, as on the
# device.
_NK, _NX, _KS, _PS = _NKEYS >> 3, _NEXT >> 3, _KEYS >> 3, _PTRS >> 3


def _build_node(words, alloc, is_leaf: bool) -> int:
    """:meth:`BTreeWorkload._new_node` on the word view; returns its word."""
    node = alloc(NODE_SIZE) >> 3
    words[node + (_IS_LEAF >> 3)] = 1 if is_leaf else 0
    words[node + _NK] = 0
    words[node + _NX] = 0
    return node


def _build_insert(words, root: int, key: int, block: int, alloc) -> None:
    """:meth:`BTreeWorkload.insert` of a key not yet in the tree, whose
    value block at ``block`` is allocated and written; ``root`` is the
    word of the tree's root pointer.  Writes the slots the per-key insert
    and its splits write, and leaves the ones they leave: a split keeps
    the moved keys and pointers past the old node's ``nkeys``.
    """
    path = []
    node = words[root] >> 3
    while words[node + (_IS_LEAF >> 3)] != 1:
        keys = node + _KS
        index = bisect_right(words[keys : keys + words[node + _NK]], key)
        path.append((node, index))
        node = words[node + _PS + index] >> 3
    # The leaf: shift the tail up one slot and insert at ``pos``.
    n = words[node + _NK]
    keys, ptrs = node + _KS, node + _PS
    pos = bisect_right(words[keys : keys + n], key)
    words[keys + pos + 1 : keys + n + 1] = words[keys + pos : keys + n]
    words[ptrs + pos + 1 : ptrs + n + 1] = words[ptrs + pos : ptrs + n]
    words[keys + pos] = key
    words[ptrs + pos] = block
    n += 1
    words[node + _NK] = n
    if n <= ORDER:
        return
    # Leaf split: the upper half moves to a new right sibling.
    half = n // 2
    new = _build_node(words, alloc, is_leaf=True)
    words[new + _KS : new + _KS + n - half] = words[keys + half : keys + n]
    words[new + _PS : new + _PS + n - half] = words[ptrs + half : ptrs + n]
    words[new + _NK] = n - half
    words[node + _NK] = half
    words[new + _NX] = words[node + _NX]
    words[node + _NX] = new << 3
    left, separator, right = node, words[new + _KS], new
    while path:
        parent, index = path.pop()
        n = words[parent + _NK]
        keys, ptrs = parent + _KS, parent + _PS
        words[keys + index + 1 : keys + n + 1] = words[keys + index : keys + n]
        words[ptrs + index + 2 : ptrs + n + 2] = words[ptrs + index + 1 : ptrs + n + 1]
        words[keys + index] = separator
        words[ptrs + index + 1] = right << 3
        n += 1
        words[parent + _NK] = n
        if n <= ORDER:
            return
        # Internal split: the middle key moves up, the keys and pointers
        # above it to a new right sibling.
        mid = n // 2
        separator = words[keys + mid]
        new = _build_node(words, alloc, is_leaf=False)
        words[new + _KS : new + _KS + n - mid - 1] = words[keys + mid + 1 : keys + n]
        words[new + _PS : new + _PS + n - mid] = words[ptrs + mid + 1 : ptrs + n + 1]
        words[new + _NK] = n - mid - 1
        words[parent + _NK] = mid
        left, right = parent, new
    # The root split: a new root above ``left`` and ``right``.
    top = _build_node(words, alloc, is_leaf=False)
    words[top + _NK] = 1
    words[top + _KS] = separator
    words[top + _PS] = left << 3
    words[top + _PS + 1] = right << 3
    words[root] = top << 3
