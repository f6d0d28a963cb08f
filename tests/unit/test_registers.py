"""Unit tests for repro.core.registers (special registers)."""

import pytest

from repro.core.registers import PHYSICAL_TXID_SPACE, SpecialRegisters
from repro.errors import TransactionError


class TestPhysicalTxids:
    def test_acquire_assigns_physical_id(self):
        regs = SpecialRegisters()
        physical = regs.acquire_txid(1000)
        assert 0 <= physical < PHYSICAL_TXID_SPACE
        assert regs.physical_txid(1000) == physical

    def test_double_acquire_rejected(self):
        regs = SpecialRegisters()
        regs.acquire_txid(1)
        with pytest.raises(TransactionError):
            regs.acquire_txid(1)

    def test_release_recycles(self):
        regs = SpecialRegisters()
        first = regs.acquire_txid(1)
        regs.release_txid(1)
        second = regs.acquire_txid(2)
        assert first == second

    def test_release_unknown_rejected(self):
        with pytest.raises(TransactionError):
            SpecialRegisters().release_txid(5)

    def test_physical_of_inactive_rejected(self):
        with pytest.raises(TransactionError):
            SpecialRegisters().physical_txid(5)

    def test_capacity_is_256(self):
        regs = SpecialRegisters()
        for user in range(PHYSICAL_TXID_SPACE):
            regs.acquire_txid(user)
        with pytest.raises(TransactionError):
            regs.acquire_txid(9999)

    def test_active_count(self):
        regs = SpecialRegisters()
        regs.acquire_txid(1)
        regs.acquire_txid(2)
        regs.release_txid(1)
        assert regs.active_count == 1

    def test_ids_unique_while_active(self):
        regs = SpecialRegisters()
        ids = {regs.acquire_txid(user) for user in range(100)}
        assert len(ids) == 100


class TestLogPointers:
    def test_grow_regions(self):
        regs = SpecialRegisters()
        regs.add_grow_region(0x1000, 4096)
        assert regs.grow_regions == [(0x1000, 4096)]
