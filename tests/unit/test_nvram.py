"""Unit tests for repro.sim.nvram."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import AddressError, SimulationError
from repro.faults.plan import FaultInjector, TornWrite
from repro.sim.config import EnergyConfig, MemCtrlConfig, NVDimmConfig
from repro.sim.energy import EnergyModel
from repro.sim.memctrl import MemoryController
from repro.sim.nvram import NVRAM, ImageSnapshot
from repro.sim.stats import MachineStats


@pytest.fixture
def nvram():
    return NVRAM(NVDimmConfig(size_bytes=1024 * 1024))


def bank_and_row(addr):
    """The bank and row a timed access to ``addr`` opens on a fresh device
    (the memory controller maps addresses onto the device's banks)."""
    config = NVDimmConfig(size_bytes=1024 * 1024)
    nvram = NVRAM(config)
    stats = MachineStats()
    energy = EnergyModel(EnergyConfig(), stats)
    MemoryController(MemCtrlConfig(), config, nvram, energy, stats, 2.5).read(addr, 1, 0.0)
    [(bank, rows)] = [(bank, rows) for bank, rows in enumerate(nvram.open_rows) if rows]
    return bank, rows[0]


class TestFunctionalAccess:
    def test_starts_zeroed(self, nvram):
        assert nvram.read(0, 16) == bytes(16)

    def test_write_then_read(self, nvram):
        nvram.write(100, b"hello", completion_time=1.0)
        assert nvram.read(100, 5) == b"hello"

    def test_device_read_does_not_count_traffic(self, nvram):
        # Traffic is counted at the controller; a device read goes around it.
        stats = MachineStats()
        energy = EnergyModel(EnergyConfig(), stats)
        controller = MemoryController(MemCtrlConfig(), nvram.config, nvram, energy, stats, 2.5)
        controller.read(0, 64, 0.0)
        nvram.read(0, 64)
        assert (stats.nvram_reads, stats.nvram_read_bytes) == (1, 64)

    def test_poke_does_not_count_or_journal(self, nvram):
        nvram.poke(0, b"xyz")
        assert nvram.journal_length == 0
        assert nvram.read(0, 3) == b"xyz"

    def test_out_of_range_read(self, nvram):
        with pytest.raises(AddressError):
            nvram.read(1024 * 1024 - 4, 8)

    def test_out_of_range_write(self, nvram):
        with pytest.raises(AddressError):
            nvram.write(1024 * 1024, b"x")


class TestGeometry:
    def test_line_interleaved_banks(self):
        banks = [bank_and_row(line * 64)[0] for line in range(8)]
        assert banks == list(range(8))

    def test_bank_wraps(self):
        assert bank_and_row(8 * 64)[0] == 0

    def test_row_covers_stripe(self):
        stripe = 2048 * 8
        assert bank_and_row(0)[1] == bank_and_row(stripe - 1)[1] == 0
        assert bank_and_row(stripe)[1] == 1


class TestRowBuffers:
    def test_first_access_misses(self, nvram):
        assert nvram.row_buffer_access(0, 5) is False

    def test_second_access_hits(self, nvram):
        nvram.row_buffer_access(0, 5)
        assert nvram.row_buffer_access(0, 5) is True

    def test_lru_eviction(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024, row_buffers_per_bank=2))
        nvram.row_buffer_access(0, 1)
        nvram.row_buffer_access(0, 2)
        nvram.row_buffer_access(0, 3)  # evicts row 1
        assert nvram.row_buffer_access(0, 1) is False
        assert nvram.row_buffer_access(0, 3) is True

    def test_touch_refreshes_lru(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024, row_buffers_per_bank=2))
        nvram.row_buffer_access(0, 1)
        nvram.row_buffer_access(0, 2)
        nvram.row_buffer_access(0, 1)  # refresh row 1
        nvram.row_buffer_access(0, 3)  # evicts row 2
        assert nvram.row_buffer_access(0, 1) is True
        assert nvram.row_buffer_access(0, 2) is False


class TestCrashJournal:
    def test_revert_discards_late_writes(self, nvram):
        nvram.write(0, b"AAAA", completion_time=10.0)
        nvram.write(0, b"BBBB", completion_time=20.0)
        reverted = nvram.revert_after(15.0)
        assert reverted == 1
        assert nvram.read(0, 4) == b"AAAA"

    def test_revert_keeps_durable_writes(self, nvram):
        nvram.write(0, b"AAAA", completion_time=10.0)
        assert nvram.revert_after(10.0) == 0
        assert nvram.read(0, 4) == b"AAAA"

    def test_revert_restores_in_reverse_order(self, nvram):
        nvram.write(0, b"11", completion_time=5.0)
        nvram.write(0, b"22", completion_time=6.0)
        nvram.write(0, b"33", completion_time=7.0)
        nvram.revert_after(5.5)
        assert nvram.read(0, 2) == b"11"

    def test_retire_journal_bounds_memory(self, nvram):
        for i in range(10):
            nvram.write(i * 8, bytes(8), completion_time=float(i))
        nvram.retire_journal(5.0)
        assert nvram.journal_length == 4


MIB = 1024 * 1024


class TestDeviceMemory:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_out_of_the_parents_pooled_buffer(
        self, monkeypatch
    ):
        """A parallel sweep forks its workers, which inherit the pool: a
        child's writes into a pooled buffer must not reach the parent's."""
        monkeypatch.setattr(NVRAM, "_image_pool", {})
        config = NVDimmConfig(size_bytes=MIB)
        device = NVRAM(config)
        buffer = device.image
        device.recycle()
        pid = os.fork()
        if pid == 0:  # child: take the pooled buffer and dirty both ends
            code = 1
            try:
                child = NVRAM(config)
                child.poke(0, b"\xff" * 64)
                child.poke(MIB - 64, b"\xff" * 64)
                code = 0 if child.image is buffer else 2
            finally:
                os._exit(code)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert NVRAM._image_pool[MIB] == [buffer]
        assert buffer[:].count(0) == MIB

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs procfs VmHWM"
    )
    def test_a_fresh_device_is_not_resident_until_written(self):
        """Building a 64 MiB device adds under 8 MiB to peak RSS; writing
        16 MiB of it then adds at least 12 MiB (the probe can see it).

        The probe reads ``VmHWM``, the peak of the process's own address
        space: ``ru_maxrss`` starts a spawned process at its parent's peak.
        """
        probe = textwrap.dedent(
            """
            from repro.sim.config import NVDimmConfig
            from repro.sim.nvram import NVRAM

            def peak_mib():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1]) / 1024

            before = peak_mib()
            device = NVRAM(NVDimmConfig(size_bytes=64 << 20))
            built = peak_mib()
            for addr in range(0, 16 << 20, 1 << 20):
                device.poke(addr, b"\\x01" * (1 << 20))
            print(built - before, peak_mib() - built)
            """
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout
        built, written = (float(field) for field in out.split())
        assert built < 8, out
        assert written >= 12, out


def _pair():
    """Two 1 MiB devices with equal contents in both windows."""
    devices = []
    for _ in range(2):
        device = NVRAM(NVDimmConfig(size_bytes=MIB))
        device.poke(0x100, b"heap")
        device.poke(MIB - 0x100, b"log!")
        devices.append(device)
    return devices


class TestSnapshots:
    def test_equal_contents_are_equal_whatever_the_windows(self):
        a, b = _pair()
        b.poke(0x4000, bytes(8))  # widens b's low window with zeros
        b.poke(MIB - 0x8000, bytes(8))  # and its high window
        assert a.written_extent() != b.written_extent()
        assert a.snapshot() == b.snapshot()
        assert not a.snapshot() != b.snapshot()

    @pytest.mark.parametrize(
        "addr",
        [0x102, MIB - 0xFE, MIB // 2 - 0x40],
        ids=["low-window", "high-window", "outside-both"],
    )
    def test_a_one_byte_difference_is_caught(self, addr):
        a, b = _pair()
        lo_end, hi_start = a.written_extent()
        assert (addr < lo_end) + (addr >= hi_start) == (addr != MIB // 2 - 0x40)
        b.poke(addr, b"\x01" if b.read(addr, 1) == b"\x00" else b"\x00")
        assert a.snapshot() != b.snapshot()
        assert b.snapshot() != a.snapshot()

    def test_restore_round_trips_and_claims_both_windows(self, monkeypatch):
        monkeypatch.setattr(NVRAM, "_image_pool", {})
        a, _b = _pair()
        copy = NVRAM(NVDimmConfig(size_bytes=MIB))
        copy.restore(a.snapshot())
        assert copy.snapshot() == a.snapshot()
        assert copy.read(0x100, 4) == b"heap"
        assert copy.read(MIB - 0x100, 4) == b"log!"
        buffer = copy.image
        copy.recycle()  # re-zeroes what restore claimed
        assert buffer[:].count(0) == MIB

    def test_snapshot_holds_only_the_windows(self):
        a, _b = _pair()
        image = a.snapshot()
        assert len(image.low) == 0x104
        assert image.hi_start == MIB - 0x100 and image.high == b"log!" + bytes(0xFC)
        assert image.tobytes() == a.image[:]

    def test_a_clipped_snapshot_covers_the_prefix(self):
        a, _b = _pair()
        a.poke(MIB // 2 + 0x10, b"mid")  # lands in the high window
        heap = a.snapshot(MIB - 0x200)
        assert len(heap) == MIB - 0x200
        assert heap.tobytes() == a.image[: MIB - 0x200]

    def test_snapshots_of_different_sizes_differ(self):
        small = ImageSnapshot(64, b"x", 64, b"")
        assert small != ImageSnapshot(128, b"x", 128, b"")
        with pytest.raises(ValueError):
            small.spans(ImageSnapshot(128, b"x", 128, b""))

    def test_restore_refuses_a_snapshot_of_another_size(self):
        device = NVRAM(NVDimmConfig(size_bytes=MIB))
        with pytest.raises(AddressError):
            device.restore(ImageSnapshot(2 * MIB, b"", 2 * MIB, b""))


def _crashing():
    """A 1 MiB device mid-run: two durable writes, two in flight past
    cycle 15, and its journal retired up to cycle 5."""
    device = NVRAM(NVDimmConfig(size_bytes=MIB))
    device.write(0x100, b"A" * 16, completion_time=1.0)
    device.write(0x200, b"B" * 16, completion_time=10.0)
    device.write(0x100, b"C" * 16, completion_time=20.0)
    device.write(MIB - 0x100, b"D" * 16, completion_time=30.0)
    device.retire_journal(5.0)
    return device


class TestFork:
    def test_a_fork_holds_an_equal_image_and_journal(self):
        parent = _crashing()
        fork = parent.fork()
        assert fork.image is not parent.image
        assert fork.snapshot() == parent.snapshot()
        assert fork.written_extent() == parent.written_extent()
        assert fork.journal_length == parent.journal_length == 3
        assert fork.revert_after(15.0) == parent.revert_after(15.0) == 2
        assert fork.snapshot() == parent.snapshot()
        assert fork.read(0x100, 16) == b"A" * 16

    @pytest.mark.parametrize("torn", [False, True], ids=["reverted", "torn"])
    def test_crashing_a_fork_leaves_the_parent_untouched(self, torn):
        parent = _crashing()
        before = parent.snapshot()
        fork = parent.fork()
        injector = FaultInjector([TornWrite(0, MIB, keep_words=1, max_tears=2)])
        fork.injector = injector if torn else None
        assert fork.revert_after(15.0) == 2
        assert injector.tears_applied == (2 if torn else 0)
        assert fork.snapshot() != before
        assert parent.snapshot() == before
        assert parent.journal_length == 3
        # A second fork crashes the parent's un-reverted image the same way.
        again = parent.fork()
        again.revert_after(15.0)
        assert again.read(0x100, 16) == b"A" * 16
        assert again.read(MIB - 0x100, 16) == bytes(16)

    def test_a_fork_refuses_an_instant_before_the_retire_horizon(self):
        parent = _crashing()
        fork = parent.fork()
        for device in (parent, fork):
            with pytest.raises(SimulationError, match="retired up to cycle 5.0"):
                device.revert_after(4.0)

    def test_a_recycled_fork_returns_its_buffer_to_the_pool(self, monkeypatch):
        monkeypatch.setattr(NVRAM, "_image_pool", {})
        parent = _crashing()
        fork = parent.fork()
        buffer = fork.image
        fork.recycle()
        assert NVRAM._image_pool[MIB] == [buffer]
        assert buffer[:].count(0) == MIB
        assert parent.fork().image is buffer
