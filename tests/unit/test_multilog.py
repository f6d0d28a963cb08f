"""Unit tests for repro.core.multilog (distributed per-thread logs)."""

import pytest

from repro import Machine, PersistentMemory
from repro.core.design import FWB
from repro.core.multilog import LogRouter, recover_all, split_log_region
from repro.core.logbuffer import LogBuffer
from repro.errors import LogError
from repro.sim.config import LoggingConfig
from tests.conftest import tiny_system, word


class TestSplit:
    def test_split_geometry(self):
        rings = split_log_region(0x1000, 128, 64, 4)
        assert len(rings) == 4
        assert [ring.num_entries for ring in rings] == [32] * 4
        assert rings[1].base == 0x1000 + 32 * 64
        assert rings[3].end == 0x1000 + 128 * 64

    def test_uneven_split_rejected(self):
        with pytest.raises(LogError):
            split_log_region(0x1000, 100, 64, 3)

    def test_zero_ways_rejected(self):
        with pytest.raises(LogError):
            split_log_region(0x1000, 128, 64, 0)


class TestRouter:
    def test_routes_by_tid_modulo(self):
        rings = split_log_region(0x1000, 64, 64, 2)
        router = LogRouter(rings, [None, None])
        assert router.log_for(0) is rings[0]
        assert router.log_for(1) is rings[1]
        assert router.log_for(2) is rings[0]

    def test_primary_and_distribution(self):
        rings = split_log_region(0x1000, 64, 64, 2)
        router = LogRouter(rings, [None, None])
        assert router.primary is rings[0]
        assert router.is_distributed
        single = LogRouter(rings[:1], [None])
        assert not single.is_distributed

    def test_mismatched_buffers_rejected(self):
        rings = split_log_region(0x1000, 64, 64, 2)
        with pytest.raises(LogError):
            LogRouter(rings, [None])


class TestMachineIntegration:
    def _machine(self, rings=2):
        return Machine(
            tiny_system(logging=LoggingConfig(log_entries=128, distributed_logs=rings)),
            FWB,
        )

    def test_machine_builds_rings_and_buffers(self):
        machine = self._machine()
        assert len(machine.logs) == 2
        assert machine.log is machine.logs[0]
        assert machine.log_router.is_distributed
        assert isinstance(machine.log_router.buffer_for(1), LogBuffer)
        assert machine.log_router.buffer_for(0) is not machine.log_router.buffer_for(1)

    def test_threads_append_to_their_own_rings(self):
        machine = self._machine()
        pm = PersistentMemory(machine)
        addr = pm.heap.alloc(16)
        for tid in range(2):
            api = pm.api(tid, tid)
            with api.transaction():
                api.write(addr + tid * 8, word(tid + 1))
        assert machine.logs[0].appended > 0
        assert machine.logs[1].appended > 0

    def test_recover_all_replays_both_rings(self):
        machine = self._machine()
        pm = PersistentMemory(machine)
        slots = [pm.heap.alloc(8) for _ in range(2)]
        durables = []
        for tid in range(2):
            api = pm.api(tid, tid)
            api.tx_begin()
            api.write(slots[tid], word(tid + 41))
            durables.append(api.tx_commit())
        machine.crash(at_time=max(durables))
        report = recover_all(machine.nvram, machine.logs)
        assert report.committed_instances == 2
        for tid in range(2):
            assert machine.nvram.peek(slots[tid], 8) == word(tid + 41)

    def test_crash_before_one_commit_rolls_back_only_that_ring(self):
        machine = self._machine()
        pm = PersistentMemory(machine)
        slots = [pm.heap.alloc(8) for _ in range(2)]
        for addr in slots:
            pm.setup_write(addr, word(0))
        api0 = pm.api(0, 0)
        api0.tx_begin()
        api0.write(slots[0], word(1))
        durable0 = api0.tx_commit()
        api1 = pm.api(1, 1)
        api1.tx_begin()
        api1.write(slots[1], word(2))
        durable1 = api1.tx_commit()
        if durable1 <= durable0:
            pytest.skip("ring service order did not produce a gap")
        machine.crash(at_time=durable0)
        recover_all(machine.nvram, machine.logs)
        assert machine.nvram.peek(slots[0], 8) == word(1)
        assert machine.nvram.peek(slots[1], 8) == word(0)
