"""Unit tests for the static persistency verifier (repro.sanitizer.static).

Every rule's proof *and* counterexample path is exercised on synthetic
compiled traces (built by ``tests.conftest.synthetic_trace``), so each
case pins one row of the decision table without compiling a workload.
"""

from __future__ import annotations

import pytest

from repro import SystemConfig
from repro.sanitizer.static import (
    NOT_APPLICABLE,
    PROVEN,
    VIOLATED,
    StaticReport,
    verify_trace,
)
from repro.sanitizer.rules import REPLICATION_RULES, RULES
from repro.sim.config import LoggingConfig
from tests.conftest import synthetic_trace

A = 0x1000
B = 0x2000


def small_system(**logging_overrides) -> SystemConfig:
    return SystemConfig(logging=LoggingConfig(**logging_overrides))


def one_txn(addr=A):
    """One committed transaction storing one 8-byte word."""
    return [("begin",), ("write", (addr, 8)), ("commit",)]


class TestUndoMissing:
    def test_redo_only_hw_violates(self):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, "hw-rlog", system=small_system(), hb=False)
        verdict = report.verdicts["undo-missing"]
        assert verdict.verdict == VIOLATED
        assert verdict.counterexample.addr == A
        assert verdict.counterexample.tid == 0

    def test_open_transaction_store_still_witnesses(self):
        # An uncommitted transaction's in-place store is exactly the
        # crash window undo logging exists for.
        trace = synthetic_trace([("begin",), ("write", (A, 8))])
        report = verify_trace(trace, "hw-rlog", system=small_system(), hb=False)
        assert report.verdicts["undo-missing"].verdict == VIOLATED

    @pytest.mark.parametrize("policy", ["hw-ulog", "hwl", "undo-clwb", "fwb"])
    def test_undo_content_proves(self, policy):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, policy, system=small_system(), hb=False)
        assert report.verdicts["undo-missing"].verdict == PROVEN

    def test_deferred_stores_prove(self):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, "redo-clwb", system=small_system(), hb=False)
        verdict = report.verdicts["undo-missing"]
        assert verdict.verdict == PROVEN
        assert "defer" in verdict.reason

    def test_vacuous_without_transactional_stores(self):
        trace = synthetic_trace([("begin",), ("commit",)])
        report = verify_trace(trace, "hw-rlog", system=small_system(), hb=False)
        assert report.verdicts["undo-missing"].verdict == PROVEN


class TestRedoMissing:
    def test_undo_only_hw_violates(self):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, "hw-ulog", system=small_system(), hb=False)
        verdict = report.verdicts["redo-missing"]
        assert verdict.verdict == VIOLATED
        assert verdict.counterexample.txn_ordinal == 0

    @pytest.mark.parametrize("policy", ["hw-rlog", "hwl", "redo-clwb", "fwb"])
    def test_redo_content_proves(self, policy):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, policy, system=small_system(), hb=False)
        assert report.verdicts["redo-missing"].verdict == PROVEN

    def test_clwb_fenced_sw_undo_proves(self):
        # undo-clwb has no redo content, but the write set is flushed
        # and fenced before the commit record exists.
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, "undo-clwb", system=small_system(), hb=False)
        assert report.verdicts["redo-missing"].verdict == PROVEN

    def test_unfenced_sw_commit_stays_buffered(self):
        # One transaction places 3 records; with a 6-entry WCB the
        # commit record never drains, so there is nothing to recover
        # against — vacuously proven, exactly like the dynamic checker.
        trace = synthetic_trace(one_txn())
        report = verify_trace(
            trace, "unsafe-base", system=small_system(wcb_entries=6), hb=False
        )
        assert report.verdicts["redo-missing"].verdict == PROVEN
        assert "buffered" in report.verdicts["redo-missing"].reason

    def test_unfenced_sw_commit_drains_under_pressure(self):
        # Five transactions push 15 records through the 6-entry WCB:
        # the early commit records drain, and their data has neither
        # been written back nor redo-logged.
        trace = synthetic_trace(one_txn() * 5)
        report = verify_trace(
            trace, "unsafe-base", system=small_system(wcb_entries=6), hb=False
        )
        verdict = report.verdicts["redo-missing"]
        assert verdict.verdict == VIOLATED
        assert verdict.counterexample.addr == A


class TestCommitDurability:
    def test_instant_commit_violates(self):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, "unsafe-base", system=small_system(), hb=False)
        verdict = report.verdicts["commit-durability"]
        assert verdict.verdict == VIOLATED
        assert verdict.counterexample.txn_ordinal == 0

    @pytest.mark.parametrize(
        "policy", ["undo-clwb", "redo-clwb", "hw-rlog", "hw-ulog", "hwl", "fwb"]
    )
    def test_fenced_commit_proves(self, policy):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, policy, system=small_system(), hb=False)
        assert report.verdicts["commit-durability"].verdict == PROVEN

    def test_storeless_txn_places_no_hw_commit_record(self):
        # The hardware engine appends nothing for an empty transaction,
        # so there is no commit record whose durability could be
        # misreported — but software logging always places one.
        trace = synthetic_trace([("begin",), ("commit",)])
        hw = verify_trace(trace, "hw-ulog", system=small_system(), hb=False)
        sw = verify_trace(trace, "unsafe-base", system=small_system(), hb=False)
        assert hw.verdicts["commit-durability"].verdict == PROVEN
        assert sw.verdicts["commit-durability"].verdict == VIOLATED


class TestWrapOverwrite:
    def wide_txn(self):
        pieces = tuple((A + 8 * i, 8) for i in range(4))
        return [("begin",), ("write", *pieces), ("commit",)]

    def test_unprotected_wrap_violates(self):
        # 6 records into a 4-entry ring, no wrap protection.
        trace = synthetic_trace(self.wide_txn())
        report = verify_trace(
            trace, "hw-ulog", system=small_system(log_entries=4), hb=False
        )
        verdict = report.verdicts["wrap-overwrite"]
        assert verdict.verdict == VIOLATED
        assert "capacity exceeded by 2" in verdict.counterexample.detail

    def test_wrap_protection_proves(self):
        trace = synthetic_trace(self.wide_txn())
        report = verify_trace(
            trace, "fwb", system=small_system(log_entries=4), hb=False
        )
        verdict = report.verdicts["wrap-overwrite"]
        assert verdict.verdict == PROVEN
        assert "wrap protection" in verdict.reason

    def test_ring_large_enough_proves(self):
        trace = synthetic_trace(self.wide_txn())
        report = verify_trace(
            trace, "hw-ulog", system=small_system(log_entries=64), hb=False
        )
        assert report.verdicts["wrap-overwrite"].verdict == PROVEN

    def test_storeless_txns_place_no_hw_records(self):
        trace = synthetic_trace([("begin",), ("commit",)] * 8)
        report = verify_trace(
            trace, "hw-ulog", system=small_system(log_entries=4), hb=False
        )
        assert report.verdicts["wrap-overwrite"].verdict == PROVEN


class TestUnloggedMutation:
    def test_write_outside_txn_violates(self):
        trace = synthetic_trace([("write", (B, 8))])
        report = verify_trace(trace, "undo-clwb", system=small_system(), hb=False)
        verdict = report.verdicts["unlogged-mutation"]
        assert verdict.verdict == VIOLATED
        assert verdict.counterexample.addr == B

    def test_deferred_flush_of_committed_set_is_sanctioned(self):
        # redo-clwb's runtime flushes the just-committed write set
        # after tx_commit; a post-span write to a committed address is
        # that flush, not an unlogged mutation.
        trace = synthetic_trace(one_txn(A) + [("write", (A, 8))])
        report = verify_trace(trace, "redo-clwb", system=small_system(), hb=False)
        assert report.verdicts["unlogged-mutation"].verdict == PROVEN

    def test_deferred_flush_to_fresh_address_still_violates(self):
        trace = synthetic_trace(one_txn(A) + [("write", (B, 8))])
        report = verify_trace(trace, "redo-clwb", system=small_system(), hb=False)
        assert report.verdicts["unlogged-mutation"].verdict == VIOLATED

    def test_non_deferring_design_gets_no_sanction(self):
        trace = synthetic_trace(one_txn(A) + [("write", (A, 8))])
        report = verify_trace(trace, "undo-clwb", system=small_system(), hb=False)
        assert report.verdicts["unlogged-mutation"].verdict == VIOLATED


class TestAxiomRules:
    @pytest.mark.parametrize(
        "rule", ["steal-order", "commit-order", "fifo-order", "torn-parity"]
    )
    @pytest.mark.parametrize("policy", ["unsafe-base", "hw-ulog", "hwl", "fwb"])
    def test_architecturally_proven(self, rule, policy):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, policy, system=small_system(), hb=False)
        assert report.verdicts[rule].verdict == PROVEN


class TestNonPersistent:
    def test_everything_not_applicable(self):
        trace = synthetic_trace(one_txn() + [("write", (B, 8))])
        report = verify_trace(trace, "non-pers", system=small_system())
        assert report.rules_checked == ()
        assert set(report.verdicts) == set(RULES)
        assert all(v.verdict == NOT_APPLICABLE for v in report.verdicts.values())
        assert report.clean
        assert report.races is not None  # hb still runs


class TestReportShape:
    def test_counters_and_round_trip(self):
        trace = synthetic_trace(one_txn(), one_txn(B))
        report = verify_trace(trace, "hwl", system=small_system(), hb=False)
        assert report.ops_examined == 6
        assert report.pieces_examined == 2
        assert report.txns_seen == 2
        assert report.cost() == 8
        data = report.to_dict()
        assert data["clean"] and data["threads"] == 2
        assert set(data["verdicts"]) == set(report.rules_checked)

    def test_rules_fired_matches_violations(self):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, "hw-rlog", system=small_system(), hb=False)
        assert report.rules_fired() == {"undo-missing"}
        assert not report.clean
        rendered = report.render()
        assert "undo-missing" in rendered and "witness" in rendered

    def test_replication_rules_proven_on_single_machine(self):
        trace = synthetic_trace(one_txn())
        report = verify_trace(trace, "hwl", system=small_system(), hb=False)
        for rule in REPLICATION_RULES:
            assert report.verdicts[rule].verdict == PROVEN
