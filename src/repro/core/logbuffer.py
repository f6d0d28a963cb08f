"""The optional volatile log buffer (Sections III-B, IV-C).

A FIFO of ``depth`` entries in the memory controller that decouples the
HWL engine from the NVRAM bus:

* **No buffer (depth 0)** — every log record is "directly forced to the
  NVRAM bus" (Section IV-C): the triggering store stalls until the
  record's transfer wins the shared channel.
* **Buffered (depth N)** — up to N records may be awaiting bus
  acceptance; the producer stalls only when all N slots are occupied.
  The paper's persistence bound limits N to the minimum cycles a cached
  store needs to traverse the hierarchy (15 for the Table II machine) so
  that a record is always on the bus before its data can be.

Records become durable in FIFO order (completion times are clamped
monotonic): log updates "must arrive in NVRAM in store-order".  The
buffer is volatile — on a crash, records whose NVRAM write had not
completed are lost (modelled via the NVRAM write journal).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.memctrl import MemoryController
    from ..sim.stats import MachineStats


class LogBuffer:
    """Volatile FIFO between the HWL engine and the NVRAM bus."""

    def __init__(self, depth: int, memctrl: "MemoryController", stats: "MachineStats") -> None:
        self.depth = depth
        self._memctrl = memctrl
        self._stats = stats
        self._accept_times: deque[float] = deque()
        self.last_completion = 0.0
        self.tracer = None
        """Optional tracer (set by the machine's ``tracer`` property);
        emits one ``log_push`` event per record entering the FIFO."""
        self.ident = 0
        """Buffer index within the machine (distributed-log configs run
        several FIFOs); stamped on ``log_push`` events so per-buffer FIFO
        order can be checked."""

    def push(self, addr: int, payload: bytes, now: float) -> tuple[float, float]:
        """Append one record; returns (stall_cycles, durable_time).

        ``durable_time`` is when the record's NVRAM write completes; the
        HWL engine uses it as the log-release time of the data line.
        """
        stall = 0.0
        if self.depth > 0:
            while self._accept_times and self._accept_times[0] <= now:
                self._accept_times.popleft()
            if len(self._accept_times) >= self.depth:
                freed_at = self._accept_times.popleft()
                stall = max(0.0, freed_at - now)
                now += stall
                self._stats.log_buffer_stall_cycles += stall
        completion, queue_stall, accepted = self._memctrl.write(
            addr, payload, now, self.last_completion
        )
        if self.depth > 0:
            self._accept_times.append(accepted)
        else:
            # Unbuffered: the triggering store waits for bus acceptance.
            bus_wait = max(0.0, accepted - now)
            stall += bus_wait
            self._stats.log_buffer_stall_cycles += bus_wait
        self._stats.log_records += 1
        self._stats.log_bytes += len(payload)
        self._stats.log_buffer_stall_cycles += queue_stall
        stall += queue_stall
        self.last_completion = max(self.last_completion, completion)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "log_push",
                -1,
                buffer=self.ident,
                addr=addr,
                completion=self.last_completion,
                stall=stall,
                occupancy=len(self._accept_times),
            )
        return stall, self.last_completion

    @property
    def occupancy(self) -> int:
        """Records currently awaiting bus acceptance (test visibility)."""
        return len(self._accept_times)
