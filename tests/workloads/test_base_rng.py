"""Tests for the workload base (accessors) and RNG helpers."""

import sys

import pytest

from repro import Machine
from repro.core.design import FWB, NON_PERS
from repro.errors import AddressError, WorkloadError
from repro.harness.runner import RunConfig, build_run
from repro.sim.ctrace import K_READ, CompiledThread
from repro.sim.nvram import NVRAM
from repro.sim.replay import RecordingAccessor, _RecordingMemory
from repro.workloads.base import SetupAccessor
from repro.workloads.rng import ZipfGenerator, thread_rng
from repro.workloads.whisper import make_whisper_kernel
from tests.conftest import make_pm, tiny_system


class TestSetupAccessor:
    def test_read_write_roundtrip(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        acc.write(0x2000, b"setup!")
        assert acc.read(0x2000, 6) == b"setup!"
        assert pm.machine.stats.instructions == 0  # untimed

    def test_compute_is_noop(self):
        pm = make_pm(NON_PERS)
        SetupAccessor(pm).compute(1000)
        assert pm.machine.stats.instructions == 0

    def test_transaction_context_is_noop(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        with acc.transaction() as inner:
            assert inner is acc

    def test_alloc_free(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        addr = acc.alloc(32)
        acc.free(addr, 32)
        assert acc.alloc(32) == addr


class TestWorkloadBase:
    def test_value_kind_validation(self):
        with pytest.raises(ValueError):
            from repro.workloads.hashtable import HashTableWorkload

            HashTableWorkload(value_kind="float")

    def test_value_sizes(self):
        from repro.workloads.hashtable import HashTableWorkload

        assert HashTableWorkload(value_kind="int").value_size == 8
        assert HashTableWorkload(value_kind="string").value_size == 96

    def test_word_helpers(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        acc.write_word(0x2000, 0xDEADBEEF)
        assert acc.read_word(0x2000) == 0xDEADBEEF
        assert acc.read(0x2000, 8) == (0xDEADBEEF).to_bytes(8, "little")
        # Unaligned words take the byte path and see the same bytes.
        acc.write_word(0x2013, 0x1122334455667788)
        assert acc.read_word(0x2013) == 0x1122334455667788
        for addr in (0x2010, 0x2013, 0x2018):
            assert acc.read_word(addr) == int.from_bytes(acc.read(addr, 8), "little")
        size = pm.machine.config.nvram.size_bytes
        acc.write_word(size - 8, 7)
        assert acc.read_word(size - 8) == 7
        for addr in (-8, -1, size - 4, size):
            with pytest.raises(AddressError):
                acc.read_word(addr)
            with pytest.raises(AddressError):
                acc.write_word(addr, 1)

    def test_word_writes_stay_inside_the_dirty_extent(self):
        pm = make_pm(NON_PERS)
        acc = SetupAccessor(pm)
        for addr in (0x2000, 0x2008, 0x5010, 0x30001):
            acc.write_word(addr, 0xFF)
            assert pm.machine.nvram.written_extent()[0] >= addr + 8

    def test_setup_leaves_a_clean_buffer_after_recycle(self, monkeypatch):
        # Isolate the image pool so the next machine gets this buffer.
        monkeypatch.setattr(NVRAM, "_image_pool", {})
        workload = make_whisper_kernel("ctree", keys_per_partition=64)
        run = RunConfig(FWB, threads=1, system=tiny_system())
        machine, _pm, _ = build_run(workload, run)
        image = machine.nvram.image
        zero = bytes(len(image))
        assert image[:] != zero
        machine.nvram.recycle()
        fresh = Machine(tiny_system(), FWB).nvram.image
        assert fresh is image
        assert fresh[:] == zero

    def test_word_view_needs_a_little_endian_host(self, monkeypatch):
        pm = make_pm(NON_PERS)
        monkeypatch.setattr(sys, "byteorder", "big")
        with pytest.raises(WorkloadError, match="little-endian"):
            SetupAccessor(pm)

    def test_timed_accessors_read_words_through_read(self):
        pm = make_pm(FWB)
        SetupAccessor(pm).write_word(0x2000, 0xABCD)
        api = pm.api(0)
        assert api.read_word(0x2000) == 0xABCD
        with api.transaction():
            api.write_word(0x2008, 0x1234)
        assert api.read(0x2008, 8) == (0x1234).to_bytes(8, "little")
        column = CompiledThread()
        memory = _RecordingMemory(pm.machine.nvram.peek(0, 0x2010))
        recorder = RecordingAccessor(memory, column)
        assert recorder.read_word(0x2000) == 0xABCD
        assert (list(column.kinds), list(column.a), list(column.b)) == ([K_READ], [0x2000], [8])


class TestThreadRng:
    def test_deterministic(self):
        assert thread_rng(7, 1).random() == thread_rng(7, 1).random()

    def test_threads_decorrelated(self):
        a = [thread_rng(7, 0).randrange(100) for _ in range(5)]
        b = [thread_rng(7, 1).randrange(100) for _ in range(5)]
        assert a != b

    def test_seeds_decorrelated(self):
        assert thread_rng(1, 0).random() != thread_rng(2, 0).random()


class TestZipf:
    def test_in_range(self):
        zipf = ZipfGenerator(100, rng=thread_rng(1, 0))
        for _ in range(500):
            assert 0 <= zipf.next() < 100

    def test_skew_toward_zero(self):
        zipf = ZipfGenerator(100, theta=0.99, rng=thread_rng(1, 0))
        draws = [zipf.next() for _ in range(3000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 4 * tail

    def test_higher_theta_more_skew(self):
        mild = ZipfGenerator(100, theta=0.5, rng=thread_rng(1, 0))
        steep = ZipfGenerator(100, theta=1.3, rng=thread_rng(1, 0))
        mild_head = sum(1 for _ in range(2000) if mild.next() == 0)
        steep_head = sum(1 for _ in range(2000) if steep.next() == 0)
        assert steep_head > mild_head

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
