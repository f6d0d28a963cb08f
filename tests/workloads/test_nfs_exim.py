"""Behavioural tests for the nfs and exim WHISPER-like kernels."""

import pytest

from repro.core.design import FWB
from repro.workloads.base import SetupAccessor
from repro.workloads.whisper.exim_w import EximKernel
from repro.workloads.whisper.nfs_w import NFSKernel
from tests.conftest import make_pm


class TestNFS:
    @pytest.fixture
    def env(self):
        pm = make_pm(FWB)
        kernel = NFSKernel(seed=5, files_per_partition=32)
        kernel.setup(pm)
        return pm, kernel

    def test_setup_creates_files(self, env):
        pm, kernel = env
        acc = SetupAccessor(pm)
        raw = kernel._directory.get(acc, 0, 1)
        assert raw != b""

    def test_block_writes_grow_inodes(self, env):
        pm, kernel = env
        api = pm.api(0)
        for _ in kernel.thread_body(api, 0, 60):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        acc = SetupAccessor(pm)
        grew = sum(
            1
            for inode in range(32)
            if kernel.inode_state(acc, 0, inode)[1] > 0
        )
        assert grew > 0
        # size and block count stay consistent (size = blocks * 256 + base)
        for inode in range(32):
            size, blocks = kernel.inode_state(acc, 0, inode)
            if blocks:
                assert size >= blocks * 256

    def test_transactions_commit(self, env):
        pm, kernel = env
        api = pm.api(0)
        for _ in kernel.thread_body(api, 0, 40):
            pass
        assert pm.machine.stats.transactions_committed == 40
        assert pm.machine.stats.log_records > 0


class TestExim:
    @pytest.fixture
    def env(self):
        pm = make_pm(FWB)
        kernel = EximKernel(seed=5, spool_slots=64)
        kernel.setup(pm)
        return pm, kernel

    def test_deliveries_counted(self, env):
        pm, kernel = env
        api = pm.api(0)
        for _ in kernel.thread_body(api, 0, 80):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        acc = SetupAccessor(pm)
        delivered = kernel.delivered_count(acc, 0)
        assert delivered > 0

    def test_spool_occupancy_bounded(self, env):
        pm, kernel = env
        api = pm.api(0)
        for _ in kernel.thread_body(api, 0, 120):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        acc = SetupAccessor(pm)
        live = sum(
            1
            for message in range(1, 200)
            if kernel.index.get(acc, 0, message) != b""
        )
        assert live <= 65  # accepts minus deliveries, bounded by design

    def test_accepts_write_more_than_deliveries(self, env):
        """Accept transactions append 2-6 body chunks; deliveries only
        touch the index + counter — visible in the log record rate."""
        pm, kernel = env
        api = pm.api(0)
        for _ in kernel.thread_body(api, 0, 50):
            pass
        records_per_txn = pm.machine.stats.log_records / 50
        assert records_per_txn > 4  # dominated by the multi-chunk accepts
