"""Bulk set-up builds exactly what per-key set-up builds.

Hash and ssca2 set-up build their structures in closed form, and rbtree
and btree replay their inserts on the device's word view.  Each is
checked here against a per-key reference: the structure's own insert
code, driven one key at a time through :class:`SetupAccessor`, drawing
keys and values exactly as set-up does.  Both must leave the same
prepared image and heap, and the trees must satisfy their invariants.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.design import NON_PERS
from repro.harness.runner import prepare_workload
from repro.sim.machine import Machine
from repro.txn.runtime import PersistentMemory
from repro.workloads.base import SetupAccessor
from repro.workloads.btree import MAX_PARTITIONS, BTreeWorkload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.rbtree import RBTreeWorkload
from repro.workloads.rng import thread_rng
from repro.workloads.ssca2 import VERTEX_SIZE, SSCA2Workload
from tests.conftest import tiny_system


def _sample_and_insert(workload, acc, salt: int, insert) -> None:
    """The per-key loop every keyed structure's set-up ran."""
    workload._resident = [
        bytearray(workload.keys_per_partition) for _ in range(MAX_PARTITIONS)
    ]
    rng = thread_rng(workload.seed, salt)
    for part in range(MAX_PARTITIONS):
        for key in rng.sample(
            range(workload.keys_per_partition), workload.keys_per_partition // 2
        ):
            insert(acc, part, key, workload.make_value(rng, key))
            workload._resident[part][key] = 1


class PerKeyHash(HashTableWorkload):
    def setup(self, pm: PersistentMemory) -> None:
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        total_buckets = MAX_PARTITIONS * self.buckets_per_partition
        self._buckets_base = pm.heap.alloc(total_buckets * 8)
        acc.write(self._buckets_base, bytes(total_buckets * 8))
        _sample_and_insert(self, acc, 0xBEEF, self._insert)


class PerKeyRBTree(RBTreeWorkload):
    def setup(self, pm: PersistentMemory) -> None:
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        self._roots_base = pm.heap.alloc(MAX_PARTITIONS * 8)
        acc.write(self._roots_base, bytes(MAX_PARTITIONS * 8))
        _sample_and_insert(self, acc, 0x5B7, self.insert)


class PerKeyBTree(BTreeWorkload):
    def setup(self, pm: PersistentMemory) -> None:
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        self._roots_base = pm.heap.alloc(MAX_PARTITIONS * 8)
        for part in range(MAX_PARTITIONS):
            root = self._new_node(acc, is_leaf=True)
            acc.write_word(self._root_addr(part), root)
        _sample_and_insert(self, acc, 0xB7EE, self.insert)


class PerKeySSCA2(SSCA2Workload):
    def setup(self, pm: PersistentMemory) -> None:
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        total = MAX_PARTITIONS * self.vertices_per_partition
        self._vertices_base = pm.heap.alloc(total * VERTEX_SIZE)
        acc.write(self._vertices_base, bytes(total * VERTEX_SIZE))
        rng = thread_rng(self.seed, 0x55CA)
        for part in range(MAX_PARTITIONS):
            for v in range(self.vertices_per_partition):
                for _ in range(self.initial_edges_per_vertex):
                    self._insert_edge(
                        acc, part, v, self._pick_vertex(rng), rng.randrange(1, 1 << 16)
                    )


#: structure -> (bulk class, per-key reference class, size strategies)
STRUCTURES = {
    "hash": (
        HashTableWorkload,
        PerKeyHash,
        dict(
            buckets_per_partition=st.integers(1, 8),
            keys_per_partition=st.integers(1, 64),
        ),
    ),
    "ssca2": (
        SSCA2Workload,
        PerKeySSCA2,
        dict(
            vertices_per_partition=st.integers(1, 16),
            initial_edges_per_vertex=st.integers(0, 6),
        ),
    ),
    "rbtree": (RBTreeWorkload, PerKeyRBTree, dict(keys_per_partition=st.integers(1, 300))),
    "btree": (BTreeWorkload, PerKeyBTree, dict(keys_per_partition=st.integers(1, 400))),
}

#: 200 keys per B+ tree fill more than ORDER + 1 leaves: the root splits
#: as an internal node and a new root goes above it.
DEEP_BTREE = dict(keys_per_partition=400)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(STRUCTURES)))
    sizes = {key: draw(strategy) for key, strategy in STRUCTURES[name][2].items()}
    seed = draw(st.integers(0, 2**16))
    value_kind = draw(st.sampled_from(["int", "string"]))
    return name, seed, value_kind, sizes


def _restored(prepared) -> SetupAccessor:
    """An accessor over a fresh machine holding the prepared image."""
    pm = PersistentMemory(Machine(prepared.system, NON_PERS))
    pm.machine.nvram.load_image_prefix(prepared.image_prefix)
    pm.heap.restore(prepared.heap_state)
    return SetupAccessor(pm)


def btree_height(workload: BTreeWorkload, acc: SetupAccessor, part: int) -> int:
    """Levels from the root of ``part``'s tree down to its leaves."""
    node = acc.read_word(workload._root_addr(part))
    height = 1
    while not workload._is_leaf(acc, node):
        node = workload._ptr(acc, node, 0)
        height += 1
    return height


@given(case=cases())
@settings(max_examples=40, deadline=None)
@example(case=("btree", 42, "int", DEEP_BTREE))
@example(case=("btree", 7, "string", DEEP_BTREE))
@example(case=("hash", 42, "string", dict(buckets_per_partition=3, keys_per_partition=40)))
@example(case=("rbtree", 3, "int", dict(keys_per_partition=300)))
@example(case=("ssca2", 5, "string", dict(vertices_per_partition=9, initial_edges_per_vertex=0)))
def test_bulk_setup_equals_per_key_setup(case):
    name, seed, value_kind, sizes = case
    bulk_cls, reference_cls, _ = STRUCTURES[name]
    system = tiny_system()
    bulk = prepare_workload(bulk_cls(seed=seed, value_kind=value_kind, **sizes), system)
    reference = prepare_workload(
        reference_cls(seed=seed, value_kind=value_kind, **sizes), system
    )
    assert bulk.image_prefix == reference.image_prefix
    assert bulk.heap_state == reference.heap_state
    host_state = {
        key: value
        for key, value in vars(reference.workload).items()
        if key.startswith("_") and key != "_heap"
    }
    assert {key: vars(bulk.workload)[key] for key in host_state} == host_state
    if name in ("rbtree", "btree"):
        for prepared in (bulk, reference):
            acc = _restored(prepared)
            for part in range(MAX_PARTITIONS):
                prepared.workload.check_invariants(acc, part)


def test_deep_btree_example_splits_internal_nodes():
    """The B+ tree example above reaches a third level: an internal node
    split and a new root, the splits that leave stale slots behind."""
    workload = BTreeWorkload(seed=42, **DEEP_BTREE)
    prepared = prepare_workload(workload, tiny_system())
    acc = _restored(prepared)
    assert min(btree_height(workload, acc, part) for part in range(MAX_PARTITIONS)) >= 3
