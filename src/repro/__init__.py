"""repro — reproduction of *Steal but No Force: Efficient Hardware
Undo+Redo Logging for Persistent Memory Systems* (HPCA 2018).

Public API quickstart::

    from repro import DESIGNS, Machine, PersistentMemory, SystemConfig

    machine = Machine(SystemConfig(), DESIGNS.resolve("fwb"))
    pm = PersistentMemory(machine)
    api = pm.api(core_id=0)
    addr = pm.heap.alloc(8)
    with api.transaction():
        api.write(addr, (42).to_bytes(8, "little"))
    stats = machine.finalize()

The designs are compositions of orthogonal mechanisms
(:class:`~repro.core.design.DesignSpec`): ``DESIGNS.resolve`` accepts
the paper's eight names (``fwb``, ``hwl``, …) or custom mechanism
strings like ``"hw+undo+clwb"``.

Subpackages:

* :mod:`repro.sim` — the timing/functional simulator substrate;
* :mod:`repro.core` — the paper's contribution (HWL, FWB, logs, recovery);
* :mod:`repro.txn` — the transaction runtime and persistent heap;
* :mod:`repro.workloads` — the evaluated microbenchmarks and WHISPER-like
  kernels;
* :mod:`repro.harness` — experiment definitions reproducing every table
  and figure.
"""

from .core.design import CANONICAL_DESIGNS, DESIGNS, DesignSpec, parse_design, resolve_design
from .core.recovery import RecoveryManager, RecoveryReport, recover_image
from .sim.config import SystemConfig
from .sim.machine import Machine
from .sim.stats import MachineStats
from .txn.runtime import PersistentMemory, ThreadAPI

__version__ = "2.0.0"

__all__ = [
    "DesignSpec",
    "DESIGNS",
    "CANONICAL_DESIGNS",
    "parse_design",
    "resolve_design",
    "SystemConfig",
    "Machine",
    "MachineStats",
    "PersistentMemory",
    "ThreadAPI",
    "RecoveryManager",
    "RecoveryReport",
    "recover_image",
    "__version__",
]
