"""SPS microbenchmark (Table III: "SPS").

"Random swaps between entries in a 1 GB vector of values."  Each
transaction picks two distinct slots in the thread's partition of a
persistent vector, reads both, and writes both back exchanged — two
persistent updates per transaction with almost no surrounding
computation, making SPS the most logging-bound microbenchmark.
"""

from __future__ import annotations

from typing import Iterator

from ..txn.runtime import PersistentMemory, ThreadAPI
from .base import SetupAccessor, Workload
from .rng import thread_rng

MAX_PARTITIONS = 8
INDEX_COMPUTE = 6  # instructions to form the two random indices


class SPSWorkload(Workload):
    """Random swaps in a persistent vector."""

    name = "sps"
    paper_footprint = "1 GB"
    description = "Random swaps between entries in a vector of values."

    def __init__(
        self,
        seed: int = 42,
        value_kind: str = "int",
        entries_per_partition: int = 0,
    ) -> None:
        super().__init__(seed, value_kind)
        if entries_per_partition <= 0:
            # Default to a footprint well beyond the LLC; string entries
            # are 12x larger, so fewer of them reach the same regime.
            entries_per_partition = 131072 if self.value_kind == "int" else 16384
        self.entries_per_partition = entries_per_partition
        self._base = 0

    @property
    def entry_size(self) -> int:
        """Bytes per vector entry."""
        return self.value_size

    def entry_addr(self, part: int, index: int) -> int:
        """Address of entry ``index`` in partition ``part``."""
        offset = (part * self.entries_per_partition + index) * self.entry_size
        return self._base + offset

    # ------------------------------------------------------------------
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate the vector and fill it with distinct tags."""
        acc = SetupAccessor(pm)
        total = MAX_PARTITIONS * self.entries_per_partition
        self._base = pm.heap.alloc(total * self.entry_size)
        rng = thread_rng(self.seed, 0x5B5)
        # Every partition holds the same tags: build one partition's
        # entries once and write it as one slice per partition.
        partition = bytearray()
        for index in range(self.entries_per_partition):
            partition += self.make_value(rng, index)
        for part in range(MAX_PARTITIONS):
            acc.write(self.entry_addr(part, 0), partition)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One swap transaction per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        for _txn in range(num_txns):
            i = rng.randrange(self.entries_per_partition)
            j = rng.randrange(self.entries_per_partition)
            while j == i:
                j = rng.randrange(self.entries_per_partition)
            with api.transaction():
                api.compute(INDEX_COMPUTE)
                addr_i = self.entry_addr(part, i)
                addr_j = self.entry_addr(part, j)
                value_i = api.read(addr_i, self.entry_size)
                value_j = api.read(addr_j, self.entry_size)
                api.write(addr_i, value_j)
                api.write(addr_j, value_i)
            yield
