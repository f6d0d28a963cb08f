"""Distributed (per-thread) logs — the Section III-F design alternative.

The paper's evaluation uses one centralized log ("We use only one
centralized circular log for all transactions for all threads") but
Section III-F notes the design "works with either type" and sketches
per-thread / per-region distributed logs as more scalable.  This module
implements the per-thread flavour:

* the log region is split into one ring per hardware thread, each with
  its own volatile log buffer (so threads never contend on the FIFO or
  on ring tail bandwidth);
* per-thread records no longer *need* the thread-ID field (the paper's
  observation) — we keep writing it for a uniform record format;
* recovery (:func:`~repro.core.recovery.recover_image`) replays every
  ring independently; a thread's transactions are sequential, so each
  ring is self-contained (commit records live in the same ring as their
  data records).
"""

from __future__ import annotations

from ..errors import LogError
from .logbuffer import LogBuffer
from .nvlog import CircularLog


class LogRouter:
    """Maps a thread ID to its lane: its log ring and its log buffer.

    With one entry this degenerates to the paper's centralized design.
    """

    def __init__(self, logs: list, buffers: list) -> None:
        if not logs or len(logs) != len(buffers):
            raise LogError("router needs one buffer per log")
        self._logs = logs
        self._buffers = buffers

    def lane(self, tid: int) -> "tuple[CircularLog, LogBuffer]":
        """Ring and volatile log buffer for thread ``tid``."""
        way = tid % len(self._logs)
        return self._logs[way], self._buffers[way]


def split_log_region(
    base: int, total_entries: int, entry_size: int, ways: int, line_size: int = 64
) -> list:
    """Partition one log region into ``ways`` consecutive rings."""
    if ways <= 0:
        raise LogError("need at least one log ring")
    if total_entries % ways:
        raise LogError(f"{total_entries} entries do not split into {ways} rings")
    per_ring = total_entries // ways
    return [
        CircularLog(base + way * per_ring * entry_size, per_ring, entry_size, line_size)
        for way in range(ways)
    ]


def log_rings(system) -> list:
    """The rings ``system`` places in its log region: the paper's one
    centralized ring, or one per thread with ``distributed_logs``."""
    logging = system.logging
    return split_log_region(
        system.log_base,
        logging.log_entries,
        logging.log_entry_size,
        max(1, logging.distributed_logs),
        system.line_size,
    )
