"""Shared fixtures: small, fast machine configurations."""

from __future__ import annotations

import pytest

from repro import Machine, PersistentMemory, SystemConfig
from repro.core.design import FWB, DesignSpec
from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    LoggingConfig,
    MemCtrlConfig,
    NVDimmConfig,
)


def tiny_system(**overrides) -> SystemConfig:
    """A miniature machine: 2 cores, 4 KB L1, 32 KB LLC, 4 MB NVRAM."""
    config = SystemConfig(
        num_cores=2,
        core=CoreConfig(),
        l1=CacheConfig(size_bytes=4 * 1024, ways=4, line_size=64, latency_ns=1.6),
        llc=CacheConfig(size_bytes=32 * 1024, ways=8, line_size=64, latency_ns=4.4),
        memctrl=MemCtrlConfig(),
        nvram=NVDimmConfig(size_bytes=4 * 1024 * 1024),
        logging=LoggingConfig(log_entries=128),
    )
    return config.scaled(**overrides) if overrides else config


@pytest.fixture
def system() -> SystemConfig:
    """Tiny validated system configuration."""
    return tiny_system()


@pytest.fixture
def machine(system) -> Machine:
    """Tiny machine under the full fwb design."""
    return Machine(system, FWB)


@pytest.fixture
def pm(machine) -> PersistentMemory:
    """Persistent-memory facade over the tiny fwb machine."""
    return PersistentMemory(machine)


def make_pm(policy: DesignSpec, **overrides) -> PersistentMemory:
    """Fresh machine + facade under ``policy`` (helper for parametrised tests)."""
    return PersistentMemory(Machine(tiny_system(**overrides), policy))


def word(value: int) -> bytes:
    """Little-endian machine word."""
    return int(value).to_bytes(8, "little")


# ----------------------------------------------------------------------
# Synthetic compiled traces (static verifier / race detector tests)
# ----------------------------------------------------------------------
def synthetic_thread(ops):
    """Build a :class:`~repro.sim.ctrace.CompiledThread` from an op DSL.

    ``ops`` is a sequence of tuples::

        ("begin",)                    tx_begin
        ("commit",)                   tx_commit
        ("write", (addr, len), ...)   one WRITE op with those pieces
        ("read", addr, size)
        ("free", addr, size)
        ("compute", n)
    """
    from repro.sim.ctrace import (
        K_COMPUTE,
        K_FREE,
        K_READ,
        K_TX_BEGIN,
        K_TX_COMMIT,
        K_WRITE,
        CompiledThread,
    )

    col = CompiledThread()

    def emit(kind, a=0, b=0):
        col.kinds.append(kind)
        col.a.append(a)
        col.b.append(b)

    for op in ops:
        tag = op[0]
        if tag == "begin":
            emit(K_TX_BEGIN)
        elif tag == "commit":
            emit(K_TX_COMMIT)
        elif tag == "write":
            first = len(col.piece_addr)
            for addr, length in op[1:]:
                col.piece_addr.append(addr)
                col.piece_len.append(length)
                col.piece_sym.append(0)
                col.piece_val.append(0)
            emit(K_WRITE, first, len(op) - 1)
        elif tag == "read":
            emit(K_READ, op[1], op[2])
        elif tag == "free":
            emit(K_FREE, op[1], op[2])
        elif tag == "compute":
            emit(K_COMPUTE, op[1])
        else:  # pragma: no cover - test-authoring error
            raise ValueError(f"unknown synthetic op {tag!r}")
    return col


def synthetic_trace(*thread_ops, txns_per_thread=1):
    """A :class:`~repro.sim.ctrace.CompiledTrace` from per-thread op DSLs."""
    from repro.sim.ctrace import CompiledTrace

    cols = [synthetic_thread(ops) for ops in thread_ops]
    return CompiledTrace(
        workload_key=("synthetic",),
        threads=len(cols),
        txns_per_thread=txns_per_thread,
        image_prefix=b"",
        image_size=0,
        heap_state=(0, {}),
        block_sizes=[],
        thread_cols=cols,
    )
