"""Shared persistent primitives for the WHISPER-like kernels.

Three reusable structures, all per-partition (one partition per thread,
as in the paper's Figure 4 usage):

* :class:`ProbingTable` — fixed-capacity open-addressing hash table with
  linear probing (slot = ``key(8) | value(value_size)``, key 0 = empty);
* :class:`AppendLog` — an application-level circular append region (the
  "persist log" pattern WHISPER workloads use heavily — distinct from
  the *system* log of :mod:`repro.core.nvlog`);
* :class:`LRUList` — a doubly-linked LRU list over fixed node slots.

Kernels compose these inside transactions through the accessor protocol
of :mod:`repro.workloads.base`.
"""

from __future__ import annotations

MAX_PARTITIONS = 8


class ProbingTable:
    """Open-addressing hash table with linear probing, per partition."""

    def __init__(self, capacity: int, value_size: int) -> None:
        self.capacity = capacity
        self.value_size = value_size
        self.slot_size = 8 + value_size
        self._base = 0

    def allocate(self, heap) -> None:
        """Reserve slots for every partition (call once during setup)."""
        self._base = heap.alloc(MAX_PARTITIONS * self.capacity * self.slot_size)

    def clear(self, acc) -> None:
        """Mark every slot empty (set-up only: one whole-table write)."""
        acc.write(self._base, bytes(MAX_PARTITIONS * self.capacity * self.slot_size))

    def slot_addr(self, part: int, slot: int) -> int:
        """Address of ``slot`` in ``part``."""
        index = part * self.capacity + slot
        return self._base + index * self.slot_size

    def _probe(self, acc, part: int, key: int) -> tuple:
        """Find ``key``; returns (slot_addr, found).  When not found the
        returned slot is the first empty one on the probe path."""
        slot = (key * 2654435761) % self.capacity
        for _step in range(self.capacity):
            addr = self.slot_addr(part, slot)
            stored = acc.read_word(addr)
            acc.compute(2)
            if stored == key:
                return addr, True
            if stored == 0:
                return addr, False
            slot = (slot + 1) % self.capacity
        raise RuntimeError("probing table full")

    def get(self, acc, part: int, key: int) -> bytes:
        """Value for ``key`` or b''."""
        addr, found = self._probe(acc, part, key)
        if not found:
            return b""
        return acc.read(addr + 8, self.value_size)

    def put(self, acc, part: int, key: int, value: bytes) -> None:
        """Insert or update ``key``.  Keys must be non-zero."""
        addr, found = self._probe(acc, part, key)
        if not found:
            acc.write_word(addr, key)
        acc.write(addr + 8, value)

    def remove(self, acc, part: int, key: int) -> bool:
        """Tombstone-free removal by key zeroing.

        Linear-probing deletion normally needs re-insertion of the
        cluster; kernels here only remove keys they re-insert soon after,
        so key-zeroing (leaving the value block) keeps probe chains
        correct enough for the access-pattern purpose of the kernels.
        """
        addr, found = self._probe(acc, part, key)
        if not found:
            return False
        acc.write_word(addr, 0)
        return True


class AppendLog:
    """Application-level circular append region, per partition."""

    def __init__(self, entries: int, entry_size: int) -> None:
        self.entries = entries
        self.entry_size = entry_size
        self._base = 0
        self._cursor = [0] * MAX_PARTITIONS

    def allocate(self, heap) -> None:
        """Reserve the region for every partition."""
        self._base = heap.alloc(MAX_PARTITIONS * self.entries * self.entry_size)

    def append(self, acc, part: int, payload: bytes) -> int:
        """Append one record; returns its address."""
        slot = self._cursor[part]
        self._cursor[part] = (slot + 1) % self.entries
        addr = self._base + (part * self.entries + slot) * self.entry_size
        acc.write(addr, payload[: self.entry_size])
        return addr

    def reset(self) -> None:
        """Rewind every partition's cursor (per-run volatile state).

        The cursors are host-side run state, not persistent structure:
        without the rewind a second run of the same workload instance
        appends at different addresses than the first, breaking the
        deterministic-per-``(seed, tid)`` half of the
        ``Workload.thread_body`` contract.
        """
        self._cursor = [0] * MAX_PARTITIONS

    def snapshot(self) -> tuple:
        """Immutable cursor checkpoint (see ``Workload.run_state``)."""
        return tuple(self._cursor)

    def restore(self, state: tuple) -> None:
        """Reinstate cursors captured by :meth:`snapshot`."""
        self._cursor = list(state)


class LRUList:
    """Doubly-linked LRU list over pre-allocated node slots.

    Node layout: ``prev(8) | next(8) | tag(8)``.  The list head/tail live
    in a per-partition anchor block.
    """

    NODE_SIZE = 24
    _PREV = 0
    _NEXT = 8
    _TAG = 16

    def __init__(self, nodes: int) -> None:
        self.nodes = nodes
        self._anchors = 0
        self._base = 0

    def allocate(self, heap) -> None:
        """Reserve anchors and node slots for every partition."""
        self._anchors = heap.alloc(MAX_PARTITIONS * 16)
        self._base = heap.alloc(MAX_PARTITIONS * self.nodes * self.NODE_SIZE)

    def node_addr(self, part: int, index: int) -> int:
        """Address of node ``index`` in ``part``."""
        return self._base + (part * self.nodes + index) * self.NODE_SIZE

    def _anchor(self, part: int) -> int:
        return self._anchors + part * 16

    def init_chain(self, acc, part: int) -> None:
        """Link every node into one chain, index 0 at the head."""
        anchor = self._anchor(part)
        acc.write_word(anchor, self.node_addr(part, 0))  # head
        acc.write_word(anchor + 8, self.node_addr(part, self.nodes - 1))
        for i in range(self.nodes):
            node = self.node_addr(part, i)
            prev_addr = self.node_addr(part, i - 1) if i > 0 else 0
            next_addr = self.node_addr(part, i + 1) if i < self.nodes - 1 else 0
            acc.write_word(node + self._PREV, prev_addr)
            acc.write_word(node + self._NEXT, next_addr)
            acc.write_word(node + self._TAG, i)

    def move_to_front(self, acc, part: int, index: int) -> None:
        """Splice node ``index`` out and relink it at the head."""
        anchor = self._anchor(part)
        node = self.node_addr(part, index)
        head = acc.read_word(anchor)
        if head == node:
            return
        prev_addr = acc.read_word(node + self._PREV)
        next_addr = acc.read_word(node + self._NEXT)
        if prev_addr != 0:
            acc.write_word(prev_addr + self._NEXT, next_addr)
        if next_addr != 0:
            acc.write_word(next_addr + self._PREV, prev_addr)
        else:
            acc.write_word(anchor + 8, prev_addr)  # new tail
        acc.write_word(node + self._PREV, 0)
        acc.write_word(node + self._NEXT, head)
        acc.write_word(head + self._PREV, node)
        acc.write_word(anchor, node)

    def head_tag(self, acc, part: int) -> int:
        """Tag of the most recently used node (for tests)."""
        head = acc.read_word(self._anchor(part))
        return acc.read_word(head + self._TAG)

    def chain_tags(self, acc, part: int) -> list:
        """Tags in head-to-tail order (for tests)."""
        tags = []
        node = acc.read_word(self._anchor(part))
        while node != 0:
            tags.append(acc.read_word(node + self._TAG))
            node = acc.read_word(node + self._NEXT)
        return tags
