"""Persistent-memory transaction runtime.

* :mod:`~repro.txn.heap` — persistent heap allocator over the NVRAM data
  region;
* :mod:`~repro.txn.runtime` — the ``tx_begin``/``tx_commit`` software
  abstraction (Section IV-A) with per-design lowering to core ops, plus
  the golden commit model used by crash-consistency tests.
"""

from .heap import PersistentHeap
from .runtime import GoldenModel, PersistentMemory, ThreadAPI

__all__ = ["PersistentHeap", "PersistentMemory", "ThreadAPI", "GoldenModel"]
