"""Evaluated workloads.

Microbenchmarks (Table III of the paper) — each transaction performs an
insert, delete, or swap against a persistent data structure:

========== =========================== =================
name       structure                   paper footprint
========== =========================== =================
hash       open-chain hash table       256 MB
rbtree     red-black tree              256 MB
sps        random swaps in a vector    1 GB
btree      B+ tree                     256 MB
ssca2      scale-free graph (SSCA 2.2) 16 MB
========== =========================== =================

Each exists in an integer-element and a string-element variant (string
elements span multiple cache lines, as in the paper's methodology).

WHISPER-like kernels (Figure 10) live in :mod:`repro.workloads.whisper`.
"""

from ..errors import ConfigError
from .base import SetupAccessor, Workload, WorkloadResult
from .btree import BTreeWorkload
from .hashtable import HashTableWorkload
from .rbtree import RBTreeWorkload
from .sps import SPSWorkload
from .ssca2 import SSCA2Workload

MICROBENCHMARKS = {
    "hash": HashTableWorkload,
    "rbtree": RBTreeWorkload,
    "sps": SPSWorkload,
    "btree": BTreeWorkload,
    "ssca2": SSCA2Workload,
}
"""Registry of Table III microbenchmarks by paper name."""


def make_microbenchmark(name: str, **kwargs) -> Workload:
    """Instantiate a Table III microbenchmark by name (an unknown name is
    a :class:`~repro.errors.ConfigError`)."""
    try:
        factory = MICROBENCHMARKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown microbenchmark {name!r}; choose from {sorted(MICROBENCHMARKS)}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "Workload",
    "WorkloadResult",
    "SetupAccessor",
    "HashTableWorkload",
    "RBTreeWorkload",
    "SPSWorkload",
    "BTreeWorkload",
    "SSCA2Workload",
    "MICROBENCHMARKS",
    "make_microbenchmark",
]
