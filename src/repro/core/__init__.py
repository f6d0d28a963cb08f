"""The paper's primary contribution: hardware undo+redo logging.

* :mod:`~repro.core.logrecord` — the log-record format (torn bit, 16-bit
  transaction ID, 8-bit thread ID, 48-bit address, undo and redo words);
* :mod:`~repro.core.nvlog` — the single-producer single-consumer Lamport
  circular log in NVRAM;
* :mod:`~repro.core.registers` — the special registers (transaction ID,
  log head/tail pointers);
* :mod:`~repro.core.logbuffer` — the optional volatile log buffer;
* :mod:`~repro.core.hwl` — the Hardware Logging (HWL) engine;
* :mod:`~repro.core.fwb` — the cache Force Write-Back (FWB) mechanism;
* :mod:`~repro.core.softlog` — the software logging baselines;
* :mod:`~repro.core.design` — the composable mechanism space
  (:class:`~repro.core.design.DesignSpec`) and the registry of the
  paper's eight canonical designs;
* :mod:`~repro.core.recovery` — post-crash log replay, through one
  layout-aware entry point (:func:`~repro.core.recovery.recover_image`).
"""

from .design import (
    CANONICAL_DESIGNS,
    DESIGNS,
    CommitProtocol,
    DesignSpec,
    LogBackend,
    LogContent,
    Writeback,
    parse_design,
    resolve_design,
)
from .growlog import GrowableCircularLog, RegionDirectory
from .lifetime import log_region_lifetime_days, wear_report
from .logrecord import LogRecord, RecordKind
from .multilog import LogRouter, log_rings, split_log_region
from .nvlog import CircularLog
from .recovery import RecoveryManager, RecoveryReport, recover_image

__all__ = [
    "LogRecord",
    "RecordKind",
    "CircularLog",
    "GrowableCircularLog",
    "RegionDirectory",
    "LogRouter",
    "split_log_region",
    "log_rings",
    "log_region_lifetime_days",
    "wear_report",
    "DesignSpec",
    "DESIGNS",
    "CANONICAL_DESIGNS",
    "LogBackend",
    "LogContent",
    "Writeback",
    "CommitProtocol",
    "parse_design",
    "resolve_design",
    "RecoveryManager",
    "RecoveryReport",
    "recover_image",
]
