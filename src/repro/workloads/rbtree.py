"""Red-black tree microbenchmark (Table III: "RBTree").

"Searches for a value in a red-black tree.  Insert if absent, remove if
found."  The tree is a full CLRS red-black tree living in persistent
memory: every node field access is a persistent-memory load, every
mutation (link, recolor, rotation) a persistent store inside the
transaction — so rebalancing directly exercises the logging machinery
with scattered small writes.

Node layout: ``key(8) | left(8) | right(8) | parent(8) | color(8) |
value(value_size)``.  The null pointer is address 0 and is black by
convention.  Each thread owns an independent tree (per-thread
partitioning, as in the paper's Figure 4).
"""

from __future__ import annotations

from typing import Iterator

from ..txn.runtime import PersistentMemory, ThreadAPI
from .base import SetupAccessor, Workload
from .rng import thread_rng

MAX_PARTITIONS = 8
RED = 1
BLACK = 0

_KEY = 0
_LEFT = 8
_RIGHT = 16
_PARENT = 24
_COLOR = 32
_VALUE = 40

SEARCH_COMPUTE = 4  # instructions per comparison while descending


class RBTreeWorkload(Workload):
    """Insert-if-absent / remove-if-found over a red-black tree."""

    name = "rbtree"
    paper_footprint = "256 MB"
    description = (
        "Searches for a value in a red-black tree. "
        "Insert if absent, remove if found."
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

    @property
    def node_size(self) -> int:
        """Bytes per tree node."""
        return _VALUE + self.value_size

    # ------------------------------------------------------------------
    # Field accessors
    # ------------------------------------------------------------------
    def _root_addr(self, part: int) -> int:
        return self._roots_base + part * 8

    def _color(self, acc, node: int) -> int:
        if node == 0:
            return BLACK
        return acc.read_word(node + _COLOR)

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate root pointers and pre-populate half of each tree.

        Builds the image and heap :meth:`insert` per key would leave:
        node ``i`` is the ``i``-th bump allocation (one allocation covers
        them all on the fresh heap), and :func:`_build_insert` replays
        the insert and its fixup on the device's word view.
        """
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        self._roots_base = pm.heap.alloc(MAX_PARTITIONS * 8)
        acc.write(self._roots_base, bytes(MAX_PARTITIONS * 8))
        self._resident = [
            bytearray(self.keys_per_partition) for _ in range(MAX_PARTITIONS)
        ]
        per_tree = self.keys_per_partition // 2
        if per_tree == 0:
            return
        size = self.node_size
        node = pm.heap.alloc(MAX_PARTITIONS * per_tree * size)
        words = acc.claim_words(node + MAX_PARTITIONS * per_tree * size)
        rng = thread_rng(self.seed, 0x5B7)
        for part in range(MAX_PARTITIONS):
            root = self._root_addr(part) >> 3
            resident = self._resident[part]
            for key in rng.sample(range(self.keys_per_partition), per_tree):
                _build_insert(words, root, node >> 3, key, self.make_value(rng, key))
                resident[key] = 1
                node += size

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
    def find(self, acc, part: int, key: int) -> int:
        """Return the node address holding ``key`` or 0."""
        node = acc.read_word(self._root_addr(part))
        while node != 0:
            acc.compute(SEARCH_COMPUTE)
            node_key = acc.read_word(node + _KEY)
            if key == node_key:
                return node
            node = acc.read_word(node + (_LEFT if key < node_key else _RIGHT))
        return 0

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------
    def _rotate_left(self, acc, part: int, x: int) -> None:
        y = acc.read_word(x + _RIGHT)
        yl = acc.read_word(y + _LEFT)
        acc.write_word(x + _RIGHT, yl)
        if yl != 0:
            acc.write_word(yl + _PARENT, x)
        xp = acc.read_word(x + _PARENT)
        acc.write_word(y + _PARENT, xp)
        if xp == 0:
            acc.write_word(self._root_addr(part), y)
        elif x == acc.read_word(xp + _LEFT):
            acc.write_word(xp + _LEFT, y)
        else:
            acc.write_word(xp + _RIGHT, y)
        acc.write_word(y + _LEFT, x)
        acc.write_word(x + _PARENT, y)

    def _rotate_right(self, acc, part: int, x: int) -> None:
        y = acc.read_word(x + _LEFT)
        yr = acc.read_word(y + _RIGHT)
        acc.write_word(x + _LEFT, yr)
        if yr != 0:
            acc.write_word(yr + _PARENT, x)
        xp = acc.read_word(x + _PARENT)
        acc.write_word(y + _PARENT, xp)
        if xp == 0:
            acc.write_word(self._root_addr(part), y)
        elif x == acc.read_word(xp + _RIGHT):
            acc.write_word(xp + _RIGHT, y)
        else:
            acc.write_word(xp + _LEFT, y)
        acc.write_word(y + _RIGHT, x)
        acc.write_word(x + _PARENT, y)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, acc, part: int, key: int, value: bytes) -> bool:
        """Insert ``key``; returns False if it was already present."""
        parent = 0
        node = acc.read_word(self._root_addr(part))
        while node != 0:
            acc.compute(SEARCH_COMPUTE)
            node_key = acc.read_word(node + _KEY)
            if key == node_key:
                return False
            parent = node
            node = acc.read_word(node + (_LEFT if key < node_key else _RIGHT))
        z = acc.alloc(self.node_size)
        acc.write_word(z + _KEY, key)
        acc.write_word(z + _LEFT, 0)
        acc.write_word(z + _RIGHT, 0)
        acc.write_word(z + _PARENT, parent)
        acc.write_word(z + _COLOR, RED)
        acc.write(z + _VALUE, value)
        if parent == 0:
            acc.write_word(self._root_addr(part), z)
        elif key < acc.read_word(parent + _KEY):
            acc.write_word(parent + _LEFT, z)
        else:
            acc.write_word(parent + _RIGHT, z)
        self._insert_fixup(acc, part, z)
        return True

    def _insert_fixup(self, acc, part: int, z: int) -> None:
        while True:
            zp = acc.read_word(z + _PARENT)
            if zp == 0 or self._color(acc, zp) == BLACK:
                break
            zpp = acc.read_word(zp + _PARENT)
            if zp == acc.read_word(zpp + _LEFT):
                uncle = acc.read_word(zpp + _RIGHT)
                if self._color(acc, uncle) == RED:
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(uncle + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    z = zpp
                else:
                    if z == acc.read_word(zp + _RIGHT):
                        z = zp
                        self._rotate_left(acc, part, z)
                        zp = acc.read_word(z + _PARENT)
                        zpp = acc.read_word(zp + _PARENT)
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    self._rotate_right(acc, part, zpp)
            else:
                uncle = acc.read_word(zpp + _LEFT)
                if self._color(acc, uncle) == RED:
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(uncle + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    z = zpp
                else:
                    if z == acc.read_word(zp + _LEFT):
                        z = zp
                        self._rotate_right(acc, part, z)
                        zp = acc.read_word(z + _PARENT)
                        zpp = acc.read_word(zp + _PARENT)
                    acc.write_word(zp + _COLOR, BLACK)
                    acc.write_word(zpp + _COLOR, RED)
                    self._rotate_left(acc, part, zpp)
        root = acc.read_word(self._root_addr(part))
        if self._color(acc, root) != BLACK:
            acc.write_word(root + _COLOR, BLACK)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def _transplant(self, acc, part: int, u: int, v: int) -> None:
        up = acc.read_word(u + _PARENT)
        if up == 0:
            acc.write_word(self._root_addr(part), v)
        elif u == acc.read_word(up + _LEFT):
            acc.write_word(up + _LEFT, v)
        else:
            acc.write_word(up + _RIGHT, v)
        if v != 0:
            acc.write_word(v + _PARENT, up)

    def _minimum(self, acc, node: int) -> int:
        while True:
            left = acc.read_word(node + _LEFT)
            if left == 0:
                return node
            node = left

    def delete(self, acc, part: int, key: int) -> bool:
        """Remove ``key``; returns False if absent."""
        z = self.find(acc, part, key)
        if z == 0:
            return False
        y = z
        y_color = self._color(acc, y)
        if acc.read_word(z + _LEFT) == 0:
            x = acc.read_word(z + _RIGHT)
            x_parent = acc.read_word(z + _PARENT)
            self._transplant(acc, part, z, x)
        elif acc.read_word(z + _RIGHT) == 0:
            x = acc.read_word(z + _LEFT)
            x_parent = acc.read_word(z + _PARENT)
            self._transplant(acc, part, z, x)
        else:
            y = self._minimum(acc, acc.read_word(z + _RIGHT))
            y_color = self._color(acc, y)
            x = acc.read_word(y + _RIGHT)
            if acc.read_word(y + _PARENT) == z:
                x_parent = y
                if x != 0:
                    acc.write_word(x + _PARENT, y)
            else:
                x_parent = acc.read_word(y + _PARENT)
                self._transplant(acc, part, y, x)
                zr = acc.read_word(z + _RIGHT)
                acc.write_word(y + _RIGHT, zr)
                acc.write_word(zr + _PARENT, y)
            self._transplant(acc, part, z, y)
            zl = acc.read_word(z + _LEFT)
            acc.write_word(y + _LEFT, zl)
            acc.write_word(zl + _PARENT, y)
            acc.write_word(y + _COLOR, self._color(acc, z))
        if y_color == BLACK:
            self._delete_fixup(acc, part, x, x_parent)
        acc.free(z, self.node_size)
        return True

    def _delete_fixup(self, acc, part: int, x: int, x_parent: int) -> None:
        while x != acc.read_word(self._root_addr(part)) and self._color(acc, x) == BLACK:
            if x_parent == 0:
                break
            if x == acc.read_word(x_parent + _LEFT):
                w = acc.read_word(x_parent + _RIGHT)
                if self._color(acc, w) == RED:
                    acc.write_word(w + _COLOR, BLACK)
                    acc.write_word(x_parent + _COLOR, RED)
                    self._rotate_left(acc, part, x_parent)
                    w = acc.read_word(x_parent + _RIGHT)
                wl = acc.read_word(w + _LEFT)
                wr = acc.read_word(w + _RIGHT)
                if self._color(acc, wl) == BLACK and self._color(acc, wr) == BLACK:
                    acc.write_word(w + _COLOR, RED)
                    x = x_parent
                    x_parent = acc.read_word(x + _PARENT)
                else:
                    if self._color(acc, wr) == BLACK:
                        if wl != 0:
                            acc.write_word(wl + _COLOR, BLACK)
                        acc.write_word(w + _COLOR, RED)
                        self._rotate_right(acc, part, w)
                        w = acc.read_word(x_parent + _RIGHT)
                        wr = acc.read_word(w + _RIGHT)
                    acc.write_word(w + _COLOR, self._color(acc, x_parent))
                    acc.write_word(x_parent + _COLOR, BLACK)
                    if wr != 0:
                        acc.write_word(wr + _COLOR, BLACK)
                    self._rotate_left(acc, part, x_parent)
                    x = acc.read_word(self._root_addr(part))
                    x_parent = 0
            else:
                w = acc.read_word(x_parent + _LEFT)
                if self._color(acc, w) == RED:
                    acc.write_word(w + _COLOR, BLACK)
                    acc.write_word(x_parent + _COLOR, RED)
                    self._rotate_right(acc, part, x_parent)
                    w = acc.read_word(x_parent + _LEFT)
                wl = acc.read_word(w + _LEFT)
                wr = acc.read_word(w + _RIGHT)
                if self._color(acc, wr) == BLACK and self._color(acc, wl) == BLACK:
                    acc.write_word(w + _COLOR, RED)
                    x = x_parent
                    x_parent = acc.read_word(x + _PARENT)
                else:
                    if self._color(acc, wl) == BLACK:
                        if wr != 0:
                            acc.write_word(wr + _COLOR, BLACK)
                        acc.write_word(w + _COLOR, RED)
                        self._rotate_left(acc, part, w)
                        w = acc.read_word(x_parent + _LEFT)
                        wl = acc.read_word(w + _LEFT)
                    acc.write_word(w + _COLOR, self._color(acc, x_parent))
                    acc.write_word(x_parent + _COLOR, BLACK)
                    if wl != 0:
                        acc.write_word(wl + _COLOR, BLACK)
                    self._rotate_right(acc, part, x_parent)
                    x = acc.read_word(self._root_addr(part))
                    x_parent = 0
        if x != 0:
            acc.write_word(x + _COLOR, BLACK)

    # ------------------------------------------------------------------
    # Verification helpers (tests)
    # ------------------------------------------------------------------
    def inorder_keys(self, acc, part: int) -> list:
        """All keys in sorted order (iterative traversal)."""
        keys = []
        stack = []
        node = acc.read_word(self._root_addr(part))
        while node != 0 or stack:
            while node != 0:
                stack.append(node)
                node = acc.read_word(node + _LEFT)
            node = stack.pop()
            keys.append(acc.read_word(node + _KEY))
            node = acc.read_word(node + _RIGHT)
        return keys

    def check_invariants(self, acc, part: int) -> int:
        """Validate red-black invariants; returns the black height.

        Raises AssertionError on violation (root is black, no red node
        has a red child, equal black height on every path).
        """
        root = acc.read_word(self._root_addr(part))
        if root == 0:
            return 0
        assert self._color(acc, root) == BLACK, "root must be black"
        return self._check_node(acc, root)

    def _check_node(self, acc, node: int) -> int:
        if node == 0:
            return 1
        color = self._color(acc, node)
        left = acc.read_word(node + _LEFT)
        right = acc.read_word(node + _RIGHT)
        if color == RED:
            assert self._color(acc, left) == BLACK, "red node with red left child"
            assert self._color(acc, right) == BLACK, "red node with red right child"
        lh = self._check_node(acc, left)
        rh = self._check_node(acc, right)
        assert lh == rh, "unequal black heights"
        return lh + (1 if color == BLACK else 0)


# ----------------------------------------------------------------------
# Set-up builder: the insert path on the device's word view
# ----------------------------------------------------------------------
# A node is referred to by its word index (address >> 3); the fields are
# words at these offsets and hold byte addresses, as on the device.
_L, _R, _P, _C, _V = _LEFT >> 3, _RIGHT >> 3, _PARENT >> 3, _COLOR >> 3, _VALUE >> 3


def _build_insert(words, root: int, z: int, key: int, value: bytes) -> None:
    """:meth:`RBTreeWorkload.insert` of a key not yet in the tree, into
    the fresh node at word ``z``; ``root`` is the word of the tree's root
    pointer.  Writes what the per-key insert and its fixup write."""
    parent = 0
    node = words[root] >> 3
    while node:
        parent = node
        node = words[node + (_L if key < words[node] else _R)] >> 3
    words[z] = key
    words[z + _L] = 0
    words[z + _R] = 0
    words[z + _P] = parent << 3
    words[z + _C] = RED
    words[z + _V : z + _V + (len(value) >> 3)] = memoryview(value).cast("Q")
    if parent == 0:
        words[root] = z << 3
    else:
        words[parent + (_L if key < words[parent] else _R)] = z << 3
    while True:
        zp = words[z + _P] >> 3
        if zp == 0 or words[zp + _C] == BLACK:
            break
        zpp = words[zp + _P] >> 3
        # ``side`` is zp's side of zpp; the uncle hangs on the other one.
        side, other = (_L, _R) if words[zpp + _L] == zp << 3 else (_R, _L)
        uncle = words[zpp + other] >> 3
        if uncle and words[uncle + _C] == RED:
            words[zp + _C] = BLACK
            words[uncle + _C] = BLACK
            words[zpp + _C] = RED
            z = zpp
            continue
        if words[zp + other] == z << 3:
            z = zp
            _build_rotate(words, root, z, other, side)
            zp = words[z + _P] >> 3
            zpp = words[zp + _P] >> 3
        words[zp + _C] = BLACK
        words[zpp + _C] = RED
        _build_rotate(words, root, zpp, side, other)
    words[(words[root] >> 3) + _C] = BLACK


def _build_rotate(words, root: int, x: int, up: int, down: int) -> None:
    """Rotate ``x``'s ``up`` child into its place: a left rotation is
    ``(up, down) = (_R, _L)``, a right one ``(_L, _R)``."""
    y = words[x + up] >> 3
    moved = words[y + down]
    words[x + up] = moved
    if moved:
        words[(moved >> 3) + _P] = x << 3
    xp = words[x + _P]
    words[y + _P] = xp
    if xp == 0:
        words[root] = y << 3
    elif words[(xp >> 3) + down] == x << 3:
        words[(xp >> 3) + down] = y << 3
    else:
        words[(xp >> 3) + up] = y << 3
    words[y + down] = x << 3
    words[x + _P] = y << 3
