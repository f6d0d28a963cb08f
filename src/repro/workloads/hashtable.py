"""Open-chain hash table microbenchmark (Table III: "Hash").

"Searches for a value in an open-chain hash table.  Insert if absent,
remove if found."  Each transaction hashes a key, walks the bucket chain,
and either unlinks the found node or links a fresh one at the head.

Layout (all in the persistent heap):

* bucket array — one word (head pointer, 0 = empty) per bucket;
* node — ``key(8) | next(8) | value(value_size)``.

Buckets are partitioned per thread (the paper's Figure 4 runs one
persistent transaction per thread on per-thread data), so transactions
never contend on the same words.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from ..txn.runtime import PersistentMemory, ThreadAPI
from .base import SetupAccessor, Workload
from .rng import thread_rng

MAX_PARTITIONS = 8
HASH_COMPUTE = 18  # instructions to hash a key
COMPARE_COMPUTE = 3  # instructions per chain-node comparison
_HASH_MULTIPLIER = 2654435761  # Knuth's multiplicative hash of a key


class HashTableWorkload(Workload):
    """Insert-if-absent / remove-if-found over an open-chain hash table."""

    name = "hash"
    paper_footprint = "256 MB"
    description = (
        "Searches for a value in an open-chain hash table. "
        "Insert if absent, remove if found."
    )

    def __init__(
        self,
        seed: int = 42,
        value_kind: str = "int",
        buckets_per_partition: int = 4096,
        keys_per_partition: int = 65536,
    ) -> None:
        super().__init__(seed, value_kind)
        self.buckets_per_partition = buckets_per_partition
        self.keys_per_partition = keys_per_partition
        self._buckets_base = 0
        self._heap = None
        self._resident: list[bytearray] = []  # per partition, 1 per stored key

    @property
    def node_size(self) -> int:
        """Bytes per chain node."""
        return 16 + self.value_size

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate buckets and pre-populate half of each partition.

        Built in closed form on the device's word view, with the image
        and heap :meth:`_insert` per key would leave: node ``i`` is the
        ``i``-th bump allocation (one allocation covers them all on the
        fresh heap) and links to its bucket's previous head.
        """
        self._heap = pm.heap
        acc = SetupAccessor(pm)
        buckets = self.buckets_per_partition
        total_buckets = MAX_PARTITIONS * buckets
        self._buckets_base = pm.heap.alloc(total_buckets * 8)
        # One bulk write of zeros instead of a word-at-a-time loop over
        # every bucket head (same bytes).
        acc.write(self._buckets_base, bytes(total_buckets * 8))
        self._resident = [
            bytearray(self.keys_per_partition) for _ in range(MAX_PARTITIONS)
        ]
        per_part = self.keys_per_partition // 2
        if per_part == 0:
            return
        size = self.node_size
        node = pm.heap.alloc(MAX_PARTITIONS * per_part * size)
        words = acc.claim_words(node + MAX_PARTITIONS * per_part * size)
        # A partition's nodes are consecutive: each field is one strided
        # column of the word view, written in a single slice assignment.
        stride = size >> 3
        value_words = stride - 2
        rng = thread_rng(self.seed, 0xBEEF)
        for part in range(MAX_PARTITIONS):
            keys = rng.sample(range(self.keys_per_partition), per_part)
            values = b"".join([self.make_value(rng, key) for key in keys])
            start = node >> 3
            end = start + per_part * stride
            heads = [0] * buckets
            links = array("Q")
            resident = self._resident[part]
            for key in keys:
                bucket = (key * _HASH_MULTIPLIER) % buckets
                links.append(heads[bucket])
                heads[bucket] = node
                resident[key] = 1
                node += size
            words[start:end:stride] = array("Q", keys)
            words[start + 1 : end : stride] = links
            value_view = memoryview(values).cast("Q")
            for word in range(value_words):
                words[start + 2 + word : end : stride] = value_view[word::value_words]
            first = (self._buckets_base >> 3) + part * buckets
            words[first : first + buckets] = array("Q", heads)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One insert-or-remove transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        resident = bytearray(self._resident[part])
        for txn in range(num_txns):
            key = rng.randrange(self.keys_per_partition)
            with api.transaction():
                api.compute(HASH_COMPUTE)
                if resident[key]:
                    self._remove(api, part, key)
                    resident[key] = 0
                else:
                    self._insert(api, part, key, self.make_value(rng, txn))
                    resident[key] = 1
            yield

    # ------------------------------------------------------------------
    # Structure operations (work on any accessor)
    # ------------------------------------------------------------------
    def _bucket_addr(self, part: int, key: int) -> int:
        index = part * self.buckets_per_partition + (
            (key * _HASH_MULTIPLIER) % self.buckets_per_partition
        )
        return self._buckets_base + index * 8

    def _insert(self, acc, part: int, key: int, value: bytes) -> None:
        bucket = self._bucket_addr(part, key)
        head = acc.read_word(bucket)
        node = acc.alloc(self.node_size)
        acc.write_word(node, key)
        acc.write_word(node + 8, head)
        acc.write(node + 16, value)
        acc.write_word(bucket, node)

    def _remove(self, acc, part: int, key: int) -> None:
        bucket = self._bucket_addr(part, key)
        prev = 0
        node = acc.read_word(bucket)
        while node != 0:
            node_key = acc.read_word(node)
            acc.compute(COMPARE_COMPUTE)
            if node_key == key:
                nxt = acc.read_word(node + 8)
                if prev == 0:
                    acc.write_word(bucket, nxt)
                else:
                    acc.write_word(prev + 8, nxt)
                acc.free(node, self.node_size)
                return
            prev = node
            node = acc.read_word(node + 8)

    def lookup(self, acc, part: int, key: int) -> bytes:
        """Return the value stored for ``key`` or b'' (for tests)."""
        node = acc.read_word(self._bucket_addr(part, key))
        while node != 0:
            if acc.read_word(node) == key:
                return acc.read(node + 16, self.value_size)
            node = acc.read_word(node + 8)
        return b""
