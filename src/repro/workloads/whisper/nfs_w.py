"""WHISPER "nfs" kernel: file-server operations over a PMFS-like layout.

WHISPER runs an NFS server over PMFS; the persistent-memory behaviour is
filesystem metadata plus data-block writes.  The kernel models a flat
file store: an inode table, a directory index, and a block region.

Transaction mix: 45% block write (append a 256 B chunk to a file and
bump its inode size/mtime), 25% metadata update (chmod/utime-style
inode rewrite), 20% lookup (directory probe + inode read, no writes
except the atime word), 10% create (directory insert + fresh inode).
"""

from __future__ import annotations

from typing import Iterator

from ...txn.runtime import PersistentMemory, ThreadAPI
from ..base import SetupAccessor, Workload
from ..rng import thread_rng
from .base import MAX_PARTITIONS, AppendLog, ProbingTable

INODE_SIZE = 48  # size(8) mtime(8) atime(8) mode(8) blocks(8) pad(8)
_SIZE = 0
_MTIME = 8
_ATIME = 16
_MODE = 24
_BLOCKS = 32
BLOCK_CHUNK = 256
PATH_COMPUTE = 10  # path resolution per operation


class NFSKernel(Workload):
    """NFS-over-PMFS style file operations."""

    name = "nfs"
    description = "File server: block writes + inode/dir metadata (WHISPER nfs)."

    def __init__(
        self, seed: int = 42, value_kind: str = "int", files_per_partition: int = 512
    ) -> None:
        super().__init__(seed, value_kind)
        self.files_per_partition = files_per_partition
        self._directory = ProbingTable(capacity=files_per_partition * 4, value_size=8)
        self._blocks = AppendLog(entries=files_per_partition * 4, entry_size=BLOCK_CHUNK)
        self._inodes_base = 0

    def _inode_addr(self, part: int, inode: int) -> int:
        index = part * self.files_per_partition * 2 + inode
        return self._inodes_base + index * INODE_SIZE

    def setup(self, pm: PersistentMemory) -> None:
        """Create the initial files: directory entries + inodes."""
        acc = SetupAccessor(pm)
        self._directory.allocate(pm.heap)
        self._directory.clear(acc)
        self._blocks.allocate(pm.heap)
        total = MAX_PARTITIONS * self.files_per_partition * 2
        self._inodes_base = pm.heap.alloc(total * INODE_SIZE)
        rng = thread_rng(self.seed, 0x0F5)
        self._next_inode = [self.files_per_partition] * MAX_PARTITIONS
        for part in range(MAX_PARTITIONS):
            for handle in range(1, self.files_per_partition + 1):
                inode = handle - 1
                self._directory.put(acc, part, handle, inode.to_bytes(8, "little"))
                addr = self._inode_addr(part, inode)
                acc.write_word(addr + _SIZE, rng.randrange(1 << 20))
                acc.write_word(addr + _MODE, 0o644)

    def reset_run_state(self) -> None:
        """Rewind the append-log cursors and inode rotors (volatile
        per-run state).  Thread bodies copy ``_next_inode`` into a local
        today, but the rotor is part of the checkpointable run-state
        contract so interleaved shard stepping can never leak a creation
        cursor across requests."""
        self._blocks.reset()
        self._next_inode = [self.files_per_partition] * MAX_PARTITIONS

    def run_state(self) -> tuple:
        """Checkpoint block cursors + inode rotors (see
        ``Workload.run_state``)."""
        return (self._blocks.snapshot(), tuple(self._next_inode))

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate the checkpoint captured by :meth:`run_state`."""
        blocks, next_inode = state
        self._blocks.restore(blocks)
        self._next_inode = list(next_inode)

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        """One file operation (write/metadata/lookup/create) per iteration."""
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        next_inode = self._next_inode[part]
        clock = 1
        for txn in range(num_txns):
            handle = rng.randrange(1, self.files_per_partition + 1)
            op = rng.random()
            clock += 1
            with api.transaction():
                api.compute(PATH_COMPUTE)
                raw = self._directory.get(api, part, handle)
                inode = int.from_bytes(raw, "little") if raw else 0
                addr = self._inode_addr(part, inode)
                if op < 0.45:
                    self._write_block(api, part, addr, handle, txn, clock)
                elif op < 0.70:
                    api.write_word(addr + _MODE, 0o600 + (txn & 0o177))
                    api.write_word(addr + _MTIME, clock)
                elif op < 0.90:
                    api.read_word(addr + _SIZE)
                    api.read_word(addr + _MODE)
                    api.write_word(addr + _ATIME, clock)
                else:
                    fresh = next_inode
                    next_inode += 1
                    if fresh < self.files_per_partition * 2:
                        new_handle = self.files_per_partition + fresh
                        self._directory.put(
                            api, part, new_handle, fresh.to_bytes(8, "little")
                        )
                        fresh_addr = self._inode_addr(part, fresh)
                        api.write_word(fresh_addr + _SIZE, 0)
                        api.write_word(fresh_addr + _MODE, 0o644)
                        api.write_word(fresh_addr + _MTIME, clock)
            yield

    def _write_block(self, api, part: int, inode_addr: int, handle: int,
                     txn: int, clock: int) -> None:
        chunk = (handle.to_bytes(8, "little") + (txn & 0xFFFFFFFF).to_bytes(8, "little"))
        chunk += bytes(BLOCK_CHUNK - len(chunk))
        self._blocks.append(api, part, chunk)
        size = api.read_word(inode_addr + _SIZE)
        blocks = api.read_word(inode_addr + _BLOCKS)
        api.write_word(inode_addr + _SIZE, size + BLOCK_CHUNK)
        api.write_word(inode_addr + _BLOCKS, blocks + 1)
        api.write_word(inode_addr + _MTIME, clock)

    def inode_state(self, acc, part: int, inode: int) -> tuple:
        """(size, blocks) for tests."""
        addr = self._inode_addr(part, inode)
        return acc.read_word(addr + _SIZE), acc.read_word(addr + _BLOCKS)
