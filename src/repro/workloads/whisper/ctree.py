"""WHISPER "ctree" kernel: binary search tree insert/remove.

WHISPER's ctree is a crit-bit tree; its persistent-memory behaviour
(pointer-chasing descent, small scattered updates on insert/remove) is
what matters here, so we use an unbalanced binary search tree over
random keys — the paper notes ctree "accurately corresponds to" the
RBTree microbenchmark.

Node layout: ``key(8) | left(8) | right(8) | value(8)``.
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import thread_rng
from .base import MAX_PARTITIONS

_KEY = 0
_LEFT = 8
_RIGHT = 16
_VALUE = 24
NODE_SIZE = 32
DESCEND_COMPUTE = 4


class CTreeKernel(Workload):
    """Insert-if-absent / remove-if-found over a binary search tree."""

    name = "ctree"
    description = "Crit-bit-style tree insert/remove (WHISPER ctree)."

    def __init__(
        self, seed: int = 42, value_kind: str = "int", keys_per_partition: int = 4096
    ) -> None:
        super().__init__(seed, value_kind)
        self.keys_per_partition = keys_per_partition
        self._roots_base = 0
        self._heap = None
        self._resident: list[bytearray] = []  # per partition, 1 per stored key

    def _root_addr(self, part: int) -> int:
        return self._roots_base + part * 8

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate roots and pre-populate half of each tree."""
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        self._roots_base = pm.heap.alloc(MAX_PARTITIONS * 8)
        for part in range(MAX_PARTITIONS):
            acc.write_word(self._root_addr(part), 0)
        self._resident = [
            bytearray(self.keys_per_partition + 1) for _ in range(MAX_PARTITIONS)
        ]
        rng = thread_rng(self.seed, 0xC7EE)
        for part in range(MAX_PARTITIONS):
            for key in rng.sample(
                range(1, self.keys_per_partition + 1), self.keys_per_partition // 2
            ):
                self.insert(acc, part, key, rng.randrange(1 << 32))
                self._resident[part][key] = 1

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One insert-or-remove transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        resident = bytearray(self._resident[part])
        for txn in range(num_txns):
            key = rng.randrange(1, self.keys_per_partition + 1)
            with api.transaction():
                if resident[key]:
                    self.remove(api, part, key)
                    resident[key] = 0
                else:
                    self.insert(api, part, key, txn)
                    resident[key] = 1
            yield

    # ------------------------------------------------------------------
    def insert(self, acc, part: int, key: int, value: int) -> bool:
        """Insert ``key``; returns False if present."""
        parent = 0
        side = _LEFT
        node = acc.read_word(self._root_addr(part))
        while node != 0:
            acc.compute(DESCEND_COMPUTE)
            node_key = acc.read_word(node + _KEY)
            if node_key == key:
                return False
            parent = node
            side = _LEFT if key < node_key else _RIGHT
            node = acc.read_word(node + side)
        fresh = acc.alloc(NODE_SIZE)
        acc.write_word(fresh + _KEY, key)
        acc.write_word(fresh + _LEFT, 0)
        acc.write_word(fresh + _RIGHT, 0)
        acc.write_word(fresh + _VALUE, value)
        if parent == 0:
            acc.write_word(self._root_addr(part), fresh)
        else:
            acc.write_word(parent + side, fresh)
        return True

    def remove(self, acc, part: int, key: int) -> bool:
        """Remove ``key``; returns False if absent."""
        parent = 0
        side = _LEFT
        node = acc.read_word(self._root_addr(part))
        while node != 0:
            acc.compute(DESCEND_COMPUTE)
            node_key = acc.read_word(node + _KEY)
            if node_key == key:
                break
            parent = node
            side = _LEFT if key < node_key else _RIGHT
            node = acc.read_word(node + side)
        if node == 0:
            return False
        left = acc.read_word(node + _LEFT)
        right = acc.read_word(node + _RIGHT)
        if left != 0 and right != 0:
            # Two children: splice in the successor's key/value, then
            # unlink the successor (which has no left child).
            succ_parent = node
            succ = right
            while True:
                succ_left = acc.read_word(succ + _LEFT)
                if succ_left == 0:
                    break
                succ_parent = succ
                succ = succ_left
            acc.write_word(node + _KEY, acc.read_word(succ + _KEY))
            acc.write_word(node + _VALUE, acc.read_word(succ + _VALUE))
            replacement = acc.read_word(succ + _RIGHT)
            if succ_parent == node:
                acc.write_word(succ_parent + _RIGHT, replacement)
            else:
                acc.write_word(succ_parent + _LEFT, replacement)
            acc.free(succ, NODE_SIZE)
            return True
        replacement = left if left != 0 else right
        if parent == 0:
            acc.write_word(self._root_addr(part), replacement)
        else:
            acc.write_word(parent + side, replacement)
        acc.free(node, NODE_SIZE)
        return True

    def contains(self, acc, part: int, key: int) -> bool:
        """Membership test (for tests)."""
        node = acc.read_word(self._root_addr(part))
        while node != 0:
            node_key = acc.read_word(node + _KEY)
            if node_key == key:
                return True
            node = acc.read_word(node + (_LEFT if key < node_key else _RIGHT))
        return False
