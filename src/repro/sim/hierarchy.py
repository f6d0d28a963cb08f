"""Two-level cache hierarchy: private L1Ds over a shared, inclusive LLC.

The hierarchy is functional (lines carry data) and timed.  It implements:

* write-back, write-allocate policies at both levels (the caching policies
  HWL piggybacks on, Section III-B);
* a directory at the LLC tracking which L1s hold each line, with
  write-invalidation and read-downgrade (enough coherence for the paper's
  per-thread-partitioned workloads);
* inclusion (an LLC eviction invalidates the L1 copies, merging their
  dirty data into the write-back);
* the log-ordering constraint: a line's write-back is posted no earlier
  than ``log_release``, the durability time of the HWL records covering
  its dirty words;
* the FWB scan tax: scans deposit cycles of "debt" that subsequent
  accesses pay one cycle at a time, modelling interleaved tag scans
  (calibrated to the paper's ~3.6% overhead for an 8 MB LLC).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ..errors import SimulationError
from ..utils import line_address
from .cache import CacheLine, EvictedLine, SetAssociativeCache
from .config import SystemConfig
from .energy import EnergyModel
from .memctrl import MemoryController
from .stats import MachineStats


class StoreResult(NamedTuple):
    """Outcome of a store: latency, level, and the overwritten bytes.

    ``old_data`` is the undo value HWL captures from the write-allocated
    line (hit or miss) without any extra read instruction.
    """

    latency: float
    level: str
    old_data: bytes
    line_addr: int


class CacheHierarchy:
    """Private L1 data caches per core plus one shared inclusive LLC."""

    def __init__(
        self,
        config: SystemConfig,
        memctrl: MemoryController,
        energy: EnergyModel,
        stats: MachineStats,
    ) -> None:
        self.config = config
        self._memctrl = memctrl
        self._stats = stats
        self.l1s = [
            SetAssociativeCache(config.l1, f"L1-{i}") for i in range(config.num_cores)
        ]
        self.llc = SetAssociativeCache(config.llc, "LLC")
        # The caches' sets and set keys, probed by the hit paths below
        # in their own frames (sets are cleared, never replaced; every
        # L1 has config.l1's geometry, so they share one set key).
        self._l1_sets = [l1.sets for l1 in self.l1s]
        self._l1_set_key = self.l1s[0].set_key
        self._llc_sets = self.llc.sets
        self._llc_set_key = self.llc.set_key
        self._l1_access_pj = energy.l1_access_pj
        self._llc_access_pj = energy.llc_access_pj
        self._directory: dict[int, set[int]] = {}
        ghz = config.core.clock_ghz
        self.l1_latency = config.l1.latency_cycles(ghz)
        self.llc_latency = config.llc.latency_cycles(ghz)
        self._line_size = config.line_size
        self._line_mask = ~(config.line_size - 1)
        self.scan_debt = 0.0
        self.writeback_release_hook: Optional[Callable[[int, float], float]] = None
        """Optional ordering hook consulted before any data write-back.

        Software logging keeps records in per-core write-combining
        buffers; the hook flushes them and returns the completion time so
        that no data line can reach NVRAM before the log records covering
        it (the natural ordering of Section II-B, made explicit)."""

    # ------------------------------------------------------------------
    # FWB scan tax
    # ------------------------------------------------------------------
    def add_scan_debt(self, cycles: float) -> None:
        """Deposit scan cost to be paid by subsequent accesses."""
        self.scan_debt += cycles

    def _take_tax(self) -> float:
        """Pay one cycle of scan debt; accesses call it only while there
        is debt (``scan_debt > 0``), so the no-debt case costs no call."""
        tax = min(1.0, self.scan_debt)
        self.scan_debt -= tax
        self._stats.fwb_tax_cycles += tax
        return tax

    # ------------------------------------------------------------------
    # Directory helpers
    # ------------------------------------------------------------------
    def _owners(self, line_addr: int) -> set[int]:
        return self._directory.get(line_addr, set())

    def _directory_add(self, line_addr: int, core_id: int) -> None:
        self._directory.setdefault(line_addr, set()).add(core_id)

    def _directory_remove(self, line_addr: int, core_id: int) -> None:
        owners = self._directory.get(line_addr)
        if owners is not None:
            owners.discard(core_id)
            if not owners:
                del self._directory[line_addr]

    # ------------------------------------------------------------------
    # Internal movement
    # ------------------------------------------------------------------
    def _post_writeback(self, addr: int, data: bytes, now: float, release: float) -> float:
        """Post a line write-back to NVRAM honouring the log-release time."""
        if self.writeback_release_hook is not None:
            release = max(release, self.writeback_release_hook(addr, now))
        ticket = self._memctrl.write(addr, data, max(now, release))
        self._stats.writebacks += 1
        return ticket.completion

    def _evict_llc_victim(self, victim: EvictedLine, now: float) -> None:
        """Handle an LLC eviction: inclusion invalidations, then write-back."""
        data = bytearray(victim.data)
        dirty = victim.dirty
        release = victim.log_release
        for core_id in list(self._owners(victim.addr)):
            dropped = self.l1s[core_id].invalidate(victim.addr)
            self._directory_remove(victim.addr, core_id)
            if dropped is not None and dropped.dirty:
                data[:] = dropped.data
                dirty = True
                release = max(release, dropped.log_release)
        if dirty:
            self._post_writeback(victim.addr, bytes(data), now, release)

    def _fetch_llc(self, line_addr: int, now: float) -> tuple[float, CacheLine]:
        """Ensure ``line_addr`` is resident in the LLC; return (extra_latency, line)."""
        stats = self._stats
        stats.energy_cache_pj += self._llc_access_pj
        bucket = self._llc_sets.get(self._llc_set_key(line_addr))
        line = bucket.get(line_addr) if bucket else None
        if line is not None:
            stats.llc_hits += 1
            line.last_use = now
            return self.llc_latency, line
        stats.llc_misses += 1
        issue = now + self.l1_latency + self.llc_latency
        finish, data = self._memctrl.read(line_addr, self._line_size, issue)
        line, victim = self.llc.fill(line_addr, data, now)
        if victim is not None:
            self._evict_llc_victim(victim, now)
        return self.llc_latency + (finish - issue), line

    def _fill_l1(
        self, core_id: int, line_addr: int, data: bytes, now: float, release: float
    ) -> CacheLine:
        """Install a line in ``core_id``'s L1, evicting a victim into the LLC.

        ``data`` may be any bytes-like buffer (the new line copies it
        once); callers pass the LLC line's backing buffer directly rather
        than materialising an intermediate ``bytes``.
        """
        l1 = self.l1s[core_id]
        line, victim = l1.fill(line_addr, data, now)
        self._directory_add(line_addr, core_id)
        if victim is not None:
            self._directory_remove(victim.addr, core_id)
            if victim.dirty:
                self._merge_into_llc(victim, now)
        line.log_release = release
        return line

    def _merge_into_llc(self, victim: EvictedLine, now: float) -> None:
        """Write an evicted dirty L1 line into the (inclusive) LLC copy."""
        llc_line = self.llc.lookup(victim.addr)
        if llc_line is None:  # pragma: no cover - inclusion guarantees presence
            raise SimulationError(f"inclusion violated for {victim.addr:#x}")
        llc_line.data[:] = victim.data
        llc_line.dirty = True
        llc_line.log_release = max(llc_line.log_release, victim.log_release)
        self.llc.touch(llc_line, now)

    def _pull_remote_dirty(self, core_id: int, line_addr: int, now: float, invalidate: bool) -> float:
        """Fetch another core's dirty copy into the LLC (downgrade or invalidate).

        Returns extra latency charged for the coherence action.
        """
        extra = 0.0
        for owner in list(self._owners(line_addr)):
            if owner == core_id:
                continue
            remote = self.l1s[owner].lookup(line_addr)
            if remote is None:
                continue
            if remote.dirty:
                self._merge_into_llc(
                    EvictedLine(line_addr, bytes(remote.data), True, remote.log_release),
                    now,
                )
                remote.dirty = False
                remote.log_release = 0.0
                self._stats.coherence_invalidations += 1
                extra = self.llc_latency
            if invalidate:
                self.l1s[owner].invalidate(line_addr)
                self._directory_remove(line_addr, owner)
                self._stats.coherence_invalidations += 1
                extra = self.llc_latency
        return extra

    # ------------------------------------------------------------------
    # Public access paths
    # ------------------------------------------------------------------
    def load(
        self, core_id: int, addr: int, now: float, line_addr: int
    ) -> tuple[float, bool, bytearray]:
        """Cacheable read of ``addr``, whose line base is ``line_addr``.

        Returns ``(latency, l1_hit, data)``, where ``data`` is the cached
        line's own buffer: the caller slices out the bytes it wants, and
        trace replay, which wants none, copies nothing.  ``line_addr`` is
        passed in because replay decodes it once per trace, not once per
        access.
        """
        tax = self._take_tax() if self.scan_debt > 0.0 else 0.0
        stats = self._stats
        stats.energy_cache_pj += self._l1_access_pj
        bucket = self._l1_sets[core_id].get(self._l1_set_key(line_addr))
        line = bucket.get(line_addr) if bucket else None
        if line is not None:
            stats.l1_hits += 1
            line.last_use = now
            return self.l1_latency + tax, True, line.data
        stats.l1_misses += 1
        extra = self._pull_remote_dirty(core_id, line_addr, now, invalidate=False)
        llc_extra, llc_line = self._fetch_llc(line_addr, now)
        filled = self._fill_l1(core_id, line_addr, llc_line.data, now, 0.0)
        return self.l1_latency + llc_extra + extra + tax, False, filled.data

    def store_prepare(self, core_id: int, addr: int, size: int, now: float) -> StoreResult:
        """Write-allocate phase of a store: bring the line to L1 and read
        the old bytes — the undo value HWL captures — *without* making the
        new value visible yet.  The caller completes the store with
        :meth:`store_finish` (possibly after logging), guaranteeing that a
        write-back racing in between cannot leak an unlogged new value.
        """
        line_addr = addr & self._line_mask
        if addr + size > line_addr + self._line_size:
            raise SimulationError(
                f"access {addr:#x}+{size} crosses a {self._line_size}B line"
            )
        tax = self._take_tax() if self.scan_debt > 0.0 else 0.0
        stats = self._stats
        stats.energy_cache_pj += self._l1_access_pj
        bucket = self._l1_sets[core_id].get(self._l1_set_key(line_addr))
        line = bucket.get(line_addr) if bucket else None
        if line is not None:
            level = "l1"
            latency = self.l1_latency + tax
            stats.l1_hits += 1
            line.last_use = now
            # Upgrade: a store to a *shared* line must still invalidate the
            # other cores' copies before writing (no other owner: nothing
            # to pull, and the call would add 0.0).
            owners = self._directory.get(line_addr)
            if owners is not None and (len(owners) > 1 or core_id not in owners):
                latency += self._pull_remote_dirty(
                    core_id, line_addr, now, invalidate=True
                )
        else:
            stats.l1_misses += 1
            extra = self._pull_remote_dirty(core_id, line_addr, now, invalidate=True)
            llc_extra, llc_line = self._fetch_llc(line_addr, now)
            # Sentinel compare: _fetch_llc returns exactly llc_latency on
            # a hit (never a derived float), so equality is intentional.
            level = "llc" if llc_extra == self.llc_latency else "mem"  # lint: allow(float-eq)
            line = self._fill_l1(core_id, line_addr, llc_line.data, now, 0.0)
            latency = self.l1_latency + llc_extra + extra + tax
        off = addr - line_addr
        old = bytes(line.data[off:off + size])
        return StoreResult(latency, level, old, line_addr)

    def store_finish(
        self, core_id: int, addr: int, data: bytes, release: float = 0.0
    ) -> None:
        """Complete a prepared store: write the new value and mark dirty.

        ``release`` forbids write-back before the covering log record is
        durable (the HWL ordering guarantee).
        """
        line_addr = addr & self._line_mask
        bucket = self._l1_sets[core_id].get(self._l1_set_key(line_addr))
        line = bucket.get(line_addr) if bucket else None
        if line is None:  # pragma: no cover - prepare just installed it
            raise SimulationError(f"store_finish without prepared line {addr:#x}")
        off = addr - line_addr
        line.data[off:off + len(data)] = data
        line.dirty = True
        if release > line.log_release:
            line.log_release = release

    def store(self, core_id: int, addr: int, data: bytes, now: float) -> StoreResult:
        """Cacheable write (write-allocate); returns the overwritten bytes."""
        result = self.store_prepare(core_id, addr, len(data), now)
        self.store_finish(core_id, addr, data)
        return result

    def set_log_release(self, core_id: int, line_addr: int, release: float) -> None:
        """Forbid write-back of ``line_addr`` before ``release`` (HWL order)."""
        line = self.l1s[core_id].lookup(line_addr)
        if line is not None:
            line.log_release = max(line.log_release, release)

    def clwb(self, core_id: int, addr: int, now: float) -> Optional[float]:
        """Write the newest dirty copy of the line back to NVRAM.

        Copies stay cached but clean (clwb semantics).  Returns the
        write-back completion time, or None if the line was clean.
        """
        line_addr = line_address(addr, self._line_size)
        self._stats.clwb_count += 1
        newest: Optional[bytes] = None
        release = 0.0
        for owner in list(self._owners(line_addr)):
            remote = self.l1s[owner].lookup(line_addr)
            if remote is not None and remote.dirty:
                newest = bytes(remote.data)
                release = max(release, remote.log_release)
                remote.dirty = False
                remote.log_release = 0.0
        llc_line = self.llc.lookup(line_addr)
        if llc_line is not None:
            if newest is not None:
                llc_line.data[:] = newest
            elif llc_line.dirty:
                newest = bytes(llc_line.data)
                release = max(release, llc_line.log_release)
            llc_line.dirty = False
            llc_line.log_release = 0.0
        if newest is None:
            return None
        return self._post_writeback(line_addr, newest, now, release)

    def force_writeback(self, line_addr: int, now: float) -> Optional[float]:
        """Force a line to NVRAM (log-wrap protection path).

        Same data movement as :meth:`clwb` but counted separately.
        """
        completion = self.clwb(0, line_addr, now)
        self._stats.clwb_count -= 1  # not an executed clwb instruction
        return completion

    def is_line_dirty(self, line_addr: int) -> bool:
        """True if any cache holds a dirty copy of ``line_addr``."""
        for owner in self._owners(line_addr):
            line = self.l1s[owner].lookup(line_addr)
            if line is not None and line.dirty:
                return True
        llc_line = self.llc.lookup(line_addr)
        return llc_line is not None and llc_line.dirty

    def flush_all(self, now: float) -> None:
        """Write every dirty line back to NVRAM (inspection/shutdown).

        Not a crash path — an orderly flush, e.g. to examine the NVRAM
        image after a timed run.
        """
        for core_id, l1 in enumerate(self.l1s):
            for line in list(l1.iter_lines()):
                if line.dirty:
                    self.fwb_writeback_l1(core_id, line, now)
        for line in list(self.llc.iter_lines()):
            if line.dirty:
                self.fwb_writeback_llc(line, now)

    def drop_all(self) -> None:
        """Power loss: all cached state disappears."""
        for l1 in self.l1s:
            l1.drop_all()
        self.llc.drop_all()
        self._directory.clear()
        self.scan_debt = 0.0

    # ------------------------------------------------------------------
    # FWB write-back helpers (used by repro.core.fwb)
    # ------------------------------------------------------------------
    def fwb_writeback_l1(self, core_id: int, line: CacheLine, now: float) -> None:
        """FWB at an L1: push the dirty line down into the LLC."""
        self._merge_into_llc(
            EvictedLine(line.addr, bytes(line.data), True, line.log_release), now
        )
        line.dirty = False
        line.fwb = False
        line.log_release = 0.0

    def fwb_writeback_llc(self, line: CacheLine, now: float) -> float:
        """FWB at the LLC: post the dirty line to NVRAM."""
        completion = self._post_writeback(line.addr, bytes(line.data), now, line.log_release)
        line.dirty = False
        line.fwb = False
        line.log_release = 0.0
        return completion
