"""Unit tests for repro.core.design — the composable mechanism space."""

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
    CommitProtocol,
    DesignRegistry,
    DesignSpec,
    LogBackend,
    LogContent,
    Writeback,
    canonical_order,
    expand_grid,
    parse_design,
    resolve_design,
)


class TestSpecValidation:
    def test_no_backend_rejects_content(self):
        with pytest.raises(ValueError):
            DesignSpec(
                LogBackend.NONE, LogContent.UNDO, Writeback.NONE, CommitProtocol.INSTANT
            )

    def test_no_backend_rejects_writeback(self):
        with pytest.raises(ValueError):
            DesignSpec(
                LogBackend.NONE, LogContent.NONE, Writeback.CLWB, CommitProtocol.INSTANT
            )

    def test_backend_requires_content(self):
        for backend in (LogBackend.SOFTWARE, LogBackend.HARDWARE):
            with pytest.raises(ValueError):
                DesignSpec(backend, LogContent.NONE, Writeback.NONE, CommitProtocol.FENCED)

    def test_anonymous_spec_gets_mechanism_name(self):
        spec = DesignSpec(
            LogBackend.HARDWARE, LogContent.UNDO, Writeback.CLWB, CommitProtocol.FENCED
        )
        assert spec.name == "hw+undo+clwb"
        assert spec.value == spec.name

    def test_name_excluded_from_equality_and_hash(self):
        anonymous = DesignSpec(
            LogBackend.HARDWARE,
            LogContent.UNDO_REDO,
            Writeback.FWB,
            CommitProtocol.FENCED,
        )
        assert anonymous == FWB
        assert hash(anonymous) == hash(FWB)
        assert anonymous.name != FWB.name


class TestMechanismString:
    @pytest.mark.parametrize("spec", CANONICAL_DESIGNS, ids=lambda s: s.name)
    def test_round_trips_through_parse(self, spec):
        assert parse_design(spec.mechanism_string()) == spec

    def test_instant_commit_is_explicit(self):
        spec = DesignSpec(
            LogBackend.SOFTWARE, LogContent.UNDO, Writeback.NONE, CommitProtocol.INSTANT
        )
        assert spec.mechanism_string() == "sw+undo+nowb+instant"

    def test_both_sides_spelled_out(self):
        assert HWL.mechanism_string() == "hw+undo+redo+clwb"


class TestParse:
    def test_backend_required_first(self):
        with pytest.raises(ValueError, match="backend token"):
            parse_design("undo+hw")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_design(" + ")

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism token"):
            parse_design("hw+undo+turbo")

    def test_default_commit_is_fenced_for_logging_backends(self):
        assert parse_design("hw+undo").commit is CommitProtocol.FENCED
        assert parse_design("sw+redo+clwb").commit is CommitProtocol.FENCED

    def test_default_commit_is_instant_without_backend(self):
        assert parse_design("none").commit is CommitProtocol.INSTANT

    def test_undo_and_redo_combine(self):
        assert parse_design("hw+undo+redo").log_content is LogContent.UNDO_REDO

    def test_token_order_free_after_backend(self):
        assert parse_design("sw+clwb+undo+fenced") == parse_design("sw+undo+clwb")

    def test_long_backend_spellings(self):
        assert parse_design("hardware+undo+redo+fwb") == FWB
        assert parse_design("software+redo+clwb") == REDO_CLWB


class TestRegistry:
    def test_paper_names_registered(self):
        assert set(DESIGNS.names()) == {
            "non-pers",
            "unsafe-base",
            "redo-clwb",
            "undo-clwb",
            "hw-rlog",
            "hw-ulog",
            "hwl",
            "fwb",
        }

    def test_registered_name_wins_over_token_parse(self):
        # "fwb" is also a write-back token; the paper design must win.
        assert DESIGNS.resolve("fwb") is FWB
        assert DESIGNS.resolve("fwb").logs_undo

    def test_resolve_falls_back_to_mechanism_string(self):
        spec = DESIGNS.resolve("hw+undo+clwb")
        assert spec.log_backend is LogBackend.HARDWARE
        assert spec.writeback is Writeback.CLWB

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ValueError, match="did you mean.*hwl"):
            DESIGNS.get("hlw")

    def test_unknown_name_mentions_composition(self):
        with pytest.raises(ValueError, match="compose one"):
            DESIGNS.resolve("zzzzzz")

    def test_duplicate_registration_rejected(self):
        registry = DesignRegistry()
        registry.register("x", NON_PERS)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", NON_PERS)

    def test_contains_and_iter(self):
        assert "hwl" in DESIGNS
        assert "nope" not in DESIGNS
        assert list(DESIGNS) == list(CANONICAL_DESIGNS)


# The paper designs' predicate truth table.  Each
# row: (design, hw, sw, undo, redo, clwb, fwb, defers, guaranteed).
LEGACY_TABLE = [
    (NON_PERS, 0, 0, 0, 0, 0, 0, 0, 0),
    (UNSAFE_BASE, 0, 1, 1, 0, 0, 0, 0, 0),
    (REDO_CLWB, 0, 1, 0, 1, 1, 0, 1, 1),
    (UNDO_CLWB, 0, 1, 1, 0, 1, 0, 0, 1),
    (HW_RLOG, 1, 0, 0, 1, 0, 0, 0, 0),
    (HW_ULOG, 1, 0, 1, 0, 0, 0, 0, 0),
    (HWL, 1, 0, 1, 1, 1, 0, 0, 1),
    (FWB, 1, 0, 1, 1, 0, 1, 0, 1),
]


class TestDerivedPredicates:
    @pytest.mark.parametrize(
        "spec,hw,sw,undo,redo,clwb,fwb,defers,guaranteed",
        LEGACY_TABLE,
        ids=[row[0].name for row in LEGACY_TABLE],
    )
    def test_matches_legacy_table(
        self, spec, hw, sw, undo, redo, clwb, fwb, defers, guaranteed
    ):
        assert spec.uses_hw_logging == bool(hw)
        assert spec.uses_sw_logging == bool(sw)
        assert spec.logs_undo == bool(undo)
        assert spec.logs_redo == bool(redo)
        assert spec.uses_clwb_at_commit == bool(clwb)
        assert spec.uses_fwb == bool(fwb)
        assert spec.defers_in_place_stores == bool(defers)
        assert spec.persistence_guaranteed == bool(guaranteed)
        assert spec.protects_log_wrap == spec.persistence_guaranteed

    def test_custom_hw_single_side_unguaranteed(self):
        # The paper's core observation: hardware logging needs BOTH log
        # sides for any-instant recovery, regardless of write-back.
        for writeback in ("nowb", "clwb", "fwb"):
            assert not parse_design(f"hw+undo+{writeback}").persistence_guaranteed
            assert not parse_design(f"hw+redo+{writeback}").persistence_guaranteed

    def test_custom_sw_undo_needs_clwb(self):
        assert not parse_design("sw+undo").persistence_guaranteed
        assert parse_design("sw+undo+clwb").persistence_guaranteed

    def test_instant_commit_never_guaranteed(self):
        assert not parse_design("hw+undo+redo+fwb+instant").persistence_guaranteed


class TestResolveDesign:
    def test_resolve_design_accepts_spec_and_string(self):
        assert resolve_design(HWL) is HWL
        assert resolve_design("hwl") is HWL
        assert resolve_design("sw+redo+clwb") == REDO_CLWB

    def test_resolve_design_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_design(42)


class TestKeyMaterial:
    def test_excludes_name(self):
        anonymous = parse_design("hw+undo+redo+fwb")
        assert anonymous.key_material() == FWB.key_material()

    def test_covers_every_mechanism(self):
        base = HWL.key_material()
        assert parse_design("sw+undo+redo+clwb").key_material() != base
        assert parse_design("hw+undo+clwb").key_material() != base
        assert parse_design("hw+undo+redo+fwb").key_material() != base
        assert parse_design("hw+undo+redo+clwb+instant").key_material() != base

    def test_json_ready(self):
        import json

        json.dumps(FWB.key_material())


class TestCanonicalOrder:
    def test_paper_order_restored(self):
        shuffled = [FWB, NON_PERS, HWL, UNSAFE_BASE]
        assert canonical_order(shuffled) == [NON_PERS, UNSAFE_BASE, HWL, FWB]

    def test_customs_trail_in_given_order(self):
        a = parse_design("hw+undo+clwb")
        b = parse_design("sw+redo+fwb")
        assert canonical_order([b, FWB, a]) == [FWB, b, a]

    def test_mechanism_equal_alias_folds_into_paper_order(self):
        # hw+undo+nowb is mechanism-equal to the canonical hw-ulog, so
        # by default it sorts as canonical despite its composed name.
        alias = parse_design("hw+undo+nowb")
        custom = parse_design("sw+redo+fwb")
        ordered = canonical_order([custom, alias, FWB])
        assert ordered == [alias, FWB, custom]
        assert ordered[0].value == "hw+undo+nowb"

    def test_strict_names_keeps_alias_with_customs(self):
        alias = parse_design("hw+undo+nowb")
        custom = parse_design("sw+redo+fwb")
        assert canonical_order(
            [custom, alias, FWB], strict_names=True
        ) == [FWB, custom, alias]


class TestExpandGrid:
    def test_skips_invalid_combinations(self):
        grid = expand_grid(["none", "hw"], ["undo"], ["none", "clwb"])
        # none backend tolerates no content/writeback -> only hw survives.
        assert all(spec.log_backend is LogBackend.HARDWARE for spec in grid)
        assert len(grid) == 2

    def test_full_default_axes(self):
        grid = expand_grid(
            ["hw", "sw"], ["undo", "redo", "undo+redo"], ["none", "clwb", "fwb"]
        )
        assert len(grid) == 18
        assert len(set(grid)) == 18

    def test_deduplicates(self):
        grid = expand_grid(["hw", "hw"], ["undo"], ["clwb"])
        assert len(grid) == 1

    def test_contains_canonical_points(self):
        grid = expand_grid(
            ["hw", "sw"], ["undo", "redo", "undo+redo"], ["none", "clwb", "fwb"]
        )
        assert HWL in grid and FWB in grid and REDO_CLWB in grid
