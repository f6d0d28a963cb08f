"""Unit tests for repro.core.growlog (log_grow(), Section IV-A)."""

import dataclasses
import gc
import weakref

import pytest

from repro import Machine, PersistentMemory, RecoveryManager, recover_image
from repro.core.design import FWB
from repro.core.growlog import (
    DIRECTORY_BYTES,
    MAX_REGIONS,
    GrowableCircularLog,
    RegionDirectory,
)
from repro.core.logrecord import LogRecord, RecordKind
from repro.errors import ConfigError, LogError
from repro.faults import campaign
from repro.faults.campaign import default_campaign_system
from repro.sim.config import LoggingConfig, NVDimmConfig
from repro.sim.nvram import NVRAM
from tests.conftest import tiny_system, word


@pytest.fixture
def nvram():
    return NVRAM(NVDimmConfig(size_bytes=1024 * 1024))


class TestRegionDirectory:
    def test_roundtrip(self, nvram):
        directory = RegionDirectory(nvram, 0x1000)
        directory.write([(0x8000, 16), (0x9000, 16)], entry_size=64)
        assert directory.read() == (64, [(0x8000, 16), (0x9000, 16)])

    def test_absent_directory_reads_none(self, nvram):
        assert RegionDirectory(nvram, 0x1000).read() is None

    def test_too_many_regions_rejected(self, nvram):
        directory = RegionDirectory(nvram, 0x1000)
        with pytest.raises(LogError):
            directory.write([(0, 1)] * (MAX_REGIONS + 1), 64)

    def test_fits_in_one_block(self):
        assert MAX_REGIONS >= 16
        assert DIRECTORY_BYTES == 512


class TestGrowableLog:
    def _make(self, nvram, active):
        allocations = []

        def allocator(size):
            base = 0x40000 + len(allocations) * size
            allocations.append(base)
            return base

        log = GrowableCircularLog(
            0x8000,
            4,
            64,
            64,
            region_allocator=allocator,
            activity_token=lambda pid: 1 if pid in active else None,
            directory=RegionDirectory(nvram, 0x1000),
        )
        return log, allocations

    def test_no_growth_for_inactive_overwrites(self, nvram):
        log, allocations = self._make(nvram, active=set())
        for i in range(10):
            log.place(LogRecord(RecordKind.DATA, 1, 0, 0x100, b"A" * 8, b"B" * 8))
        assert log.grow_count == 0
        assert allocations == []

    def test_grows_instead_of_overwriting_active(self, nvram):
        log, allocations = self._make(nvram, active={1})
        for _ in range(5):  # 5th append would displace txn 1's record
            log.place(LogRecord(RecordKind.DATA, 1, 0, 0x100, b"A" * 8, b"B" * 8))
        assert log.grow_count == 1
        assert len(allocations) == 1
        assert log.base == allocations[0]

    def test_directory_tracks_regions(self, nvram):
        log, _ = self._make(nvram, active={1})
        for _ in range(5):
            log.place(LogRecord(RecordKind.DATA, 1, 0, 0x100, b"A" * 8, b"B" * 8))
        _entry_size, regions = RegionDirectory(nvram, 0x1000).read()
        assert len(regions) == 2
        assert regions[0][0] == 0x8000

    def test_region_views_in_creation_order(self, nvram):
        log, allocations = self._make(nvram, active={1})
        for _ in range(5):
            log.place(LogRecord(RecordKind.DATA, 1, 0, 0x100, b"A" * 8, b"B" * 8))
        views = log.region_views()
        assert [view.base for view in views] == [0x8000, allocations[0]]


class TestMachineIntegration:
    def _machine(self):
        return Machine(
            tiny_system(logging=LoggingConfig(log_entries=16, enable_log_grow=True)),
            FWB,
        )

    def test_oversized_transaction_commits_and_recovers(self):
        machine = self._machine()
        pm = PersistentMemory(machine)
        api = pm.api(0)
        slots = [pm.heap.alloc(8) for _ in range(40)]
        api.tx_begin()
        for i, addr in enumerate(slots):
            api.write(addr, word(i + 1))
        durable = api.tx_commit()
        assert machine.log.grow_count >= 1
        machine.crash(at_time=durable)
        report = RecoveryManager(machine.nvram, machine.log).recover()
        assert report.committed_instances == 1
        assert report.redo_writes == 40
        for i, addr in enumerate(slots):
            assert machine.nvram.peek(addr, 8) == word(i + 1)

    def test_cold_restart_recovery_from_directory(self):
        machine = self._machine()
        pm = PersistentMemory(machine)
        api = pm.api(0)
        addr = pm.heap.alloc(8)
        api.tx_begin()
        api.write(addr, word(99))
        durable = api.tx_commit()
        machine.crash(at_time=durable)
        report = recover_image(machine.nvram, machine.config)
        assert report.committed_instances == 1
        assert machine.nvram.peek(addr, 8) == word(99)

    def test_heap_shrinks_for_arena(self):
        plain = Machine(tiny_system(logging=LoggingConfig(log_entries=16)), FWB)
        grower = self._machine()
        assert grower.heap_limit < plain.heap_limit

    def test_arena_exhaustion_raises(self):
        machine = Machine(
            tiny_system(
                logging=LoggingConfig(
                    log_entries=16, enable_log_grow=True, log_grow_reserve_regions=1
                )
            ),
            FWB,
        )
        pm = PersistentMemory(machine)
        api = pm.api(0)
        slots = [pm.heap.alloc(8) for _ in range(40)]
        api.tx_begin()
        # The records fill the 16-entry primary ring, then the one
        # reserved region; the second growth finds the arena empty, which
        # the configuration's reserve could not hold.
        with pytest.raises(
            ConfigError, match="arena exhausted.*log_grow_reserve_regions=1 "
        ):
            for i, addr in enumerate(slots):
                api.write(addr, word(i + 1))
        assert machine.log.grow_count == 1

    def test_campaign_fails_exhausted_arena_before_any_point(self, monkeypatch):
        """An rbtree campaign on a 16-entry grown log exhausts the arena in
        its fwb profile run.  Every design is profiled first, so it fails
        as a ConfigError naming the reserve before any crash point runs
        (unsafe-base, which keeps no log, profiles cleanly before it)."""
        system = default_campaign_system(16)
        system = dataclasses.replace(
            system,
            logging=dataclasses.replace(system.logging, enable_log_grow=True),
        )
        ran = []
        for runner in ("_run_execution_point", "_run_recovery_point"):
            monkeypatch.setattr(
                campaign, runner, lambda *args, runner=runner: ran.append(runner)
            )
        with pytest.raises(ConfigError, match="log_grow_reserve_regions=3 "):
            campaign.run_fault_campaign(
                policies=("unsafe-base", "fwb"),
                workload="rbtree",
                points=30,
                system=system,
            )
        assert ran == []

    def test_machine_dies_with_its_last_reference(self):
        """The log's region allocator must not hold the machine: a cycle
        would leave the machine and its NVRAM image to the cyclic
        collector."""
        gc.collect()
        gc.disable()
        try:
            machine = self._machine()
            pm = PersistentMemory(machine)
            api = pm.api(0)
            slots = [pm.heap.alloc(8) for _ in range(40)]
            api.tx_begin()
            for i, addr in enumerate(slots):
                api.write(addr, word(i + 1))
            api.tx_commit()
            assert machine.log.grow_count >= 1
            probe = weakref.ref(machine)
            del machine, pm, api
            assert probe() is None
        finally:
            gc.enable()

    def test_grow_incompatible_with_distributed(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            tiny_system(
                logging=LoggingConfig(
                    log_entries=16, enable_log_grow=True, distributed_logs=2
                )
            ).validate()
