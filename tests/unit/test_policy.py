"""Unit tests for the paper's eight designs as the registry serves them."""

import pytest

from repro.core.design import (
    CANONICAL_DESIGNS,
    DESIGNS,
    FWB,
    HW_RLOG,
    HW_ULOG,
    HWL,
    NON_PERS,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
)


class TestNames:
    def test_paper_names(self):
        assert {p.value for p in CANONICAL_DESIGNS} == {
            "non-pers",
            "unsafe-base",
            "redo-clwb",
            "undo-clwb",
            "hw-rlog",
            "hw-ulog",
            "hwl",
            "fwb",
        }

    def test_from_name(self):
        assert DESIGNS.get("fwb") is FWB

    def test_from_name_covers_every_member(self):
        for policy in CANONICAL_DESIGNS:
            assert DESIGNS.get(policy.value) is policy

    def test_from_name_unknown(self):
        with pytest.raises(ValueError):
            DESIGNS.get("nope")

    def test_from_name_unknown_suggests(self):
        with pytest.raises(ValueError, match="did you mean.*undo-clwb"):
            DESIGNS.get("undo-clbw")

    def test_paper_order(self):
        assert CANONICAL_DESIGNS[0] is NON_PERS
        assert CANONICAL_DESIGNS[-1] is FWB


class TestStructure:
    def test_hw_vs_sw_partition(self):
        for policy in CANONICAL_DESIGNS:
            assert not (policy.uses_hw_logging and policy.uses_sw_logging)

    def test_non_pers_logs_nothing(self):
        assert not NON_PERS.logs_undo
        assert not NON_PERS.logs_redo

    def test_hwl_and_fwb_log_both_sides(self):
        for policy in (HWL, FWB):
            assert policy.logs_undo and policy.logs_redo

    def test_single_side_hw(self):
        assert HW_RLOG.logs_redo and not HW_RLOG.logs_undo
        assert HW_ULOG.logs_undo and not HW_ULOG.logs_redo

    def test_clwb_users(self):
        assert {p for p in CANONICAL_DESIGNS if p.uses_clwb_at_commit} == {
            REDO_CLWB,
            UNDO_CLWB,
            HWL,
        }

    def test_only_fwb_uses_fwb(self):
        assert [p for p in CANONICAL_DESIGNS if p.uses_fwb] == [FWB]

    def test_persistence_guarantees(self):
        guaranteed = {p for p in CANONICAL_DESIGNS if p.persistence_guaranteed}
        assert guaranteed == {REDO_CLWB, UNDO_CLWB, HWL, FWB}

    def test_unsafe_designs_not_guaranteed(self):
        for policy in (UNSAFE_BASE, HW_RLOG, HW_ULOG):
            assert not policy.persistence_guaranteed

    def test_only_redo_defers_stores(self):
        assert [p for p in CANONICAL_DESIGNS if p.defers_in_place_stores] == [REDO_CLWB]

    def test_wrap_protection_matches_guarantee(self):
        for policy in CANONICAL_DESIGNS:
            assert policy.protects_log_wrap == policy.persistence_guaranteed
