"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class AddressError(ReproError):
    """An address is out of range or misaligned for the requested access."""


class LogError(ReproError):
    """The circular log was used incorrectly (overflow, bad record, ...)."""


class TransactionError(ReproError):
    """Transaction API misuse (nested begin, commit without begin, ...)."""


class RecoveryError(ReproError):
    """The recovery manager found an unrecoverable log state."""


class RecoveryInterrupted(ReproError):
    """A simulated crash fired in the middle of a recovery pass.

    Raised by :class:`~repro.core.recovery.RecoveryManager` when a fault
    campaign's crash injector trips between recovery writes; the NVRAM
    image is left exactly as the partial recovery made it, and a second
    recovery pass must converge to the same state as an uninterrupted one.
    """


class FaultInjectionError(ReproError):
    """A fault-injection plan is malformed or targets an invalid range."""


class SimulatedCrash(ReproError):
    """A fault campaign's crash point fired during execution.

    Raised out of :meth:`~repro.sim.machine.Machine.issue` by an
    installed :class:`~repro.faults.crashpoints.FaultMonitor` the moment
    its trigger event occurs.  The driver catches it and calls
    :meth:`~repro.sim.machine.Machine.crash` with :attr:`at_time`.
    """

    def __init__(self, kind: str, index: int, at_time: float) -> None:
        super().__init__(f"simulated crash at {kind}[{index}] t={at_time:.1f}")
        self.kind = kind
        self.index = index
        self.at_time = at_time


class SimulationError(ReproError):
    """Internal simulator invariant violated."""


class WorkloadError(ReproError):
    """A workload was configured or driven incorrectly."""
