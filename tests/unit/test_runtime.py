"""Unit tests for repro.txn.runtime (transaction API and lowering)."""

import pytest

from repro.core.design import (
    CANONICAL_DESIGNS,
    FWB,
    HWL,
    NON_PERS,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
    resolve_design,
)
from repro.errors import TransactionError
from tests.conftest import make_pm, word

GUARANTEED = [REDO_CLWB, UNDO_CLWB, HWL, FWB]


class TestLifecycle:
    def test_begin_commit(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        txid = api.tx_begin()
        assert api.in_transaction
        durable = api.tx_commit()
        assert not api.in_transaction
        assert txid >= 1
        assert durable >= 0

    def test_nested_begin_rejected(self):
        api = make_pm(FWB).api(0)
        api.tx_begin()
        with pytest.raises(TransactionError):
            api.tx_begin()

    def test_commit_without_begin_rejected(self):
        with pytest.raises(TransactionError):
            make_pm(FWB).api(0).tx_commit()

    def test_write_outside_transaction_rejected(self):
        api = make_pm(FWB).api(0)
        with pytest.raises(TransactionError):
            api.write(0x2000, word(1))

    def test_context_manager(self):
        api = make_pm(FWB).api(0)
        with api.transaction():
            api.write(0x2000, word(7))
        assert not api.in_transaction

    def test_context_manager_propagates_errors(self):
        api = make_pm(FWB).api(0)
        with pytest.raises(RuntimeError):
            with api.transaction():
                raise RuntimeError("boom")

    def test_txids_unique(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        ids = set()
        for _ in range(10):
            with api.transaction():
                pass
            ids.add(pm._txid_counter)
        assert len(ids) == 10


@pytest.mark.parametrize("policy", CANONICAL_DESIGNS, ids=lambda p: p.value)
class TestReadYourWrites:
    def test_read_after_write_in_txn(self, policy):
        api = make_pm(policy).api(0)
        api.tx_begin()
        api.write(0x2000, word(123))
        assert api.read(0x2000, 8) == word(123)
        api.tx_commit()

    def test_read_after_commit(self, policy):
        api = make_pm(policy).api(0)
        with api.transaction():
            api.write(0x2000, b"persists")
        assert api.read(0x2000, 8) == b"persists"

    def test_unaligned_multi_word_write(self, policy):
        api = make_pm(policy).api(0)
        payload = bytes(range(20))
        with api.transaction():
            api.write(0x2003, payload)
        assert api.read(0x2003, 20) == payload

    def test_cross_line_read(self, policy):
        api = make_pm(policy).api(0)
        payload = bytes(range(100, 180))
        with api.transaction():
            api.write(0x2020, payload)
        assert api.read(0x2020, 80) == payload


class TestRedoOverlay:
    def test_overlay_patches_partial_read(self):
        api = make_pm(REDO_CLWB).api(0)
        pm_word = word(0xAABBCCDD)
        api.tx_begin()
        api.write(0x2000, pm_word)
        # Read a wider range overlapping the overlay.
        data = api.read(0x1FF8, 24)
        assert data[8:16] == pm_word
        api.tx_commit()

    def test_in_place_store_deferred_until_commit(self):
        pm = make_pm(REDO_CLWB)
        api = pm.api(0)
        api.tx_begin()
        api.write(0x2000, word(5))
        # The cache must not have the new value yet (no in-place store).
        assert not pm.machine.hierarchy.is_line_dirty(0x2000)
        api.tx_commit()
        assert api.read(0x2000, 8) == word(5)

    def test_instant_commit_applies_the_deferred_stores(self):
        """The instant twin of redo-clwb reports commit without a fence,
        but its deferred in-place stores still land (and its clwb writes
        them back): a later transaction reads the committed value, not
        the one it replaced."""
        pm = make_pm(resolve_design("sw+redo+clwb+instant"))
        api = pm.api(0)
        with api.transaction():
            api.write(0x2000, word(5))
        assert pm.machine.nvram.read(0x2000, 8) == word(5)
        with api.transaction():
            assert api.read(0x2000, 8) == word(5)

    @pytest.mark.parametrize("name", ["sw+undo+clwb+instant", "sw+redo+clwb+instant"])
    def test_software_instant_commit_posts_its_clwbs(self, name):
        """Instant commit drops the fence, not the write-back mechanism:
        one committed one-word transaction posts one clwb."""
        pm = make_pm(resolve_design(name))
        api = pm.api(0)
        with api.transaction():
            api.write(0x2000, word(5))
        assert pm.machine.stats.clwb_count == 1


class TestGoldenModel:
    def test_commit_recorded(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        with api.transaction():
            api.write(0x2000, word(1))
        assert len(pm.golden.commits) == 1
        durable, writes = pm.golden.commits[0]
        assert writes[0x2000] == word(1)
        assert durable > 0

    def test_expected_at_orders_by_durability(self):
        pm = make_pm(FWB)
        pm.golden.record(10.0, {0x2000: word(1)})
        pm.golden.record(20.0, {0x2000: word(2)})
        assert pm.golden.expected_at(15.0)[0x2000] == word(1)
        assert pm.golden.expected_at(25.0)[0x2000] == word(2)
        assert pm.golden.expected_at(5.0) == {}

    def test_touched_addresses(self):
        pm = make_pm(FWB)
        pm.golden.record(1.0, {0x2000: word(1), 0x2008: word(2)})
        assert pm.golden.touched_addresses() == {0x2000, 0x2008}


@pytest.mark.parametrize("policy", GUARANTEED, ids=lambda p: p.value)
class TestDurability:
    def test_committed_data_recoverable_once_durable(self, policy):
        """Crashing at the reported durability time must preserve the
        transaction: the data is either in NVRAM already (clwb designs)
        or reconstructed from the log (steal-but-no-force designs)."""
        pm = make_pm(policy)
        api = pm.api(0)
        api.tx_begin()
        api.write(0x2000, b"DURABLE!")
        durable = api.tx_commit()
        from repro.core.recovery import RecoveryManager

        pm.machine.crash(at_time=durable)
        RecoveryManager(pm.machine.nvram, pm.machine.log).recover()
        assert pm.machine.nvram.read(0x2000, 8) == b"DURABLE!"

    def test_crash_before_durability_rolls_back(self, policy):
        """Crashing before the commit record drains loses the transaction
        cleanly (atomicity): the old value is restored."""
        pm = make_pm(policy)
        pm.setup_write(0x2000, b"ORIGINAL")
        api = pm.api(0)
        api.tx_begin()
        api.write(0x2000, b"DOOMED!!")
        from repro.core.recovery import RecoveryManager

        pm.machine.crash(at_time=api.now)  # commit never issued
        RecoveryManager(pm.machine.nvram, pm.machine.log).recover()
        assert pm.machine.nvram.read(0x2000, 8) == b"ORIGINAL"


class TestInstructionAccounting:
    def test_sw_logging_executes_more_instructions(self):
        def instructions(policy):
            pm = make_pm(policy)
            api = pm.api(0)
            with api.transaction():
                api.compute(20)
                api.write(0x2000, bytes(32))
            return pm.machine.cores[0].instret

        non_pers = instructions(NON_PERS)
        sw = instructions(UNSAFE_BASE)
        hw = instructions(FWB)
        assert sw > 1.8 * non_pers
        assert non_pers < hw < 1.5 * non_pers

    def test_setup_accessors(self):
        pm = make_pm(FWB)
        pm.setup_write(0x3000, b"seed")
        assert pm.setup_read(0x3000, 4) == b"seed"
        assert pm.machine.stats.instructions == 0
