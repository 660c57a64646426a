from dataclasses import dataclass

import pytest

from rewardsim import IssuerVariant, classify, comparison_matrix, get_variant, render_matrix
from rewardsim.issuers import FAIL, PARTIAL, PASS, MATRIX_VARIANTS, VARIANTS


@dataclass
class StubOutcome:
    """What ``classify`` reads of an attack outcome."""

    timing: str
    value_extracted: int
    lags: tuple

    def restore_lags(self) -> list:
        return list(self.lags)


def outcome(timing="same-cycle", extracted=0, lags=()):
    return StubOutcome(timing, extracted, lags)


class TestPresets:
    def test_all_expected_variants_exist(self):
        expected = set(MATRIX_VARIANTS) | {"defensive-instant", "defensive-cycle"}
        assert expected == set(VARIANTS)

    def test_a_variant_is_its_five_policy_fields(self):
        assert IssuerVariant._fields == (
            "instant", "refund_adjustment", "floors_at_zero",
            "auto_redeem_at_close", "uses_grace_hold")

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            get_variant("Z")

    def test_only_b_auto_redeems(self):
        assert get_variant("B").auto_redeem_at_close
        assert not any(
            v.auto_redeem_at_close for n, v in VARIANTS.items() if n != "B"
        )

    def test_only_defensive_cycle_holds_redemptions(self):
        assert get_variant("defensive-cycle").uses_grace_hold
        assert not any(
            v.uses_grace_hold for n, v in VARIANTS.items() if n != "defensive-cycle"
        )

    def test_defensive_instant_mirrors_c(self):
        # a name is a preset: nine names, seven points
        assert get_variant("defensive-instant") == get_variant("C")
        assert get_variant("E") == get_variant("D")
        assert len(set(VARIANTS.values())) == 7

    def test_only_instant_variants_that_never_wait_skip_the_close(self):
        # credit at settlement, adjust refunds never or at once, no hold
        # and no redemption at the close: a close has nothing to do
        assert {n for n, v in VARIANTS.items() if not v.defers_to_close} == {
            "A", "C", "V3a", "defensive-instant"}

    @pytest.mark.parametrize("field,value", [
        ("instant", False), ("refund_adjustment", "statement-close"),
        ("uses_grace_hold", True), ("auto_redeem_at_close", True),
    ])
    def test_each_policy_field_can_defer_work(self, field, value):
        assert not get_variant("C").defers_to_close
        assert get_variant("C")._replace(**{field: value}).defers_to_close


class TestClassify:
    def test_extraction_anywhere_fails(self):
        v = get_variant("A")
        outs = [outcome("same-cycle"), outcome("cross-cycle", extracted=100)]
        assert classify(v, outs) == FAIL

    def test_same_cycle_lag_is_partial(self):
        v = get_variant("F")
        outs = [outcome("same-cycle", lags=[18]), outcome("cross-cycle", lags=[25])]
        assert classify(v, outs) == PARTIAL

    def test_cross_cycle_lag_alone_passes(self):
        # deferred-settlement variants lag on cross-cycle refunds by design
        v = get_variant("D")
        outs = [outcome("same-cycle", lags=[]), outcome("cross-cycle", lags=[25])]
        assert classify(v, outs) == PASS

    def test_clean_battery_passes(self):
        v = get_variant("C")
        assert classify(v, [outcome(lags=[0, 0])]) == PASS


class TestMatrix:
    def test_row_shape_and_order(self):
        battery = {n: [outcome()] for n in MATRIX_VARIANTS}
        rows = comparison_matrix(battery)
        assert [r["variant"] for r in rows] == MATRIX_VARIANTS

    def test_rows_follow_the_battery_order(self):
        # any variant the battery holds gets a row, where the battery has it
        names = ["defensive-cycle", "V3a", "F", "A"]
        rows = comparison_matrix({n: [outcome()] for n in names})
        assert [r["variant"] for r in rows] == names
        assert comparison_matrix({}) == []

    def test_display_labels(self):
        battery = {n: [outcome()] for n in VARIANTS}
        by_name = {r["variant"]: r for r in comparison_matrix(battery)}
        assert by_name["B"]["refund_adjustment"] == "None"
        assert by_name["F"]["negative_balance"] == "Indefinite*"
        assert by_name["V3a"]["negative_balance"] == "Floored at zero"
        assert by_name["A"]["negative_balance"] == "N/A"
        # the star is read from the fields (instant credit, clawback at the
        # close), and of the nine presets only F has that pair
        assert [n for n, r in by_name.items() if r["negative_balance"].endswith("*")] == ["F"]

    def test_render_is_stable(self):
        battery = {n: [outcome()] for n in MATRIX_VARIANTS}
        rows = comparison_matrix(battery)
        assert render_matrix(rows) == render_matrix(rows)
        assert render_matrix(rows).startswith("Variant")
