"""Timing + functional simulation substrate (McSimA+ substitute).

This subpackage provides the architecture simulator the paper's evaluation
runs on: cores, a write-back write-allocate cache hierarchy, a memory
controller, and an NVRAM DIMM with PCM-like timing and energy parameters
(Table II of the paper).
"""

from .config import (
    CacheConfig,
    CoreConfig,
    EnergyConfig,
    LoggingConfig,
    MemCtrlConfig,
    NVDimmConfig,
    SystemConfig,
)
from .machine import Machine
from .stats import MachineStats

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "EnergyConfig",
    "LoggingConfig",
    "MemCtrlConfig",
    "NVDimmConfig",
    "SystemConfig",
    "Machine",
    "MachineStats",
]
