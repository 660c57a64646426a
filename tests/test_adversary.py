from fractions import Fraction

import pytest

from rewardsim import harness, run_battery, run_ddra
from rewardsim.adversary import (
    CONTROL,
    CROSS_CYCLE,
    SAME_CYCLE,
    build_ddra_scenario,
)
from rewardsim.invariants import net_spend


class TestScenarioGeometry:
    def test_same_cycle_refund_lands_before_close(self):
        sc = build_ddra_scenario("A", timing=SAME_CYCLE, cycles=2)
        days = [(e.kind, e.day) for e in sc.events]
        assert days == [
            ("purchase", 2), ("refund", 12), ("purchase", 32), ("refund", 42)
        ]

    def test_cross_cycle_refund_lands_after_close(self):
        sc = build_ddra_scenario("B", timing=CROSS_CYCLE, cycles=2)
        days = [(e.kind, e.day) for e in sc.events]
        assert days == [
            ("purchase", 20), ("refund", 35), ("purchase", 50), ("refund", 65)
        ]

    def test_control_never_refunds(self):
        sc = build_ddra_scenario("C", timing=CONTROL, cycles=3)
        assert all(e.kind == "purchase" for e in sc.events)

    def test_unknown_timing(self):
        with pytest.raises(ValueError):
            build_ddra_scenario("A", timing="sideways")

    @pytest.mark.parametrize("fraction,purchase", [
        (Fraction(1, 2), 1), (Fraction(1, 3), 2), (Fraction(0), 10000),
        (Fraction(-1), 10000), (Fraction(3, 2), 10000),
    ], ids=["half-of-1", "third-of-2", "zero", "minus-one", "three-halves"])
    @pytest.mark.parametrize("timing", [SAME_CYCLE, CROSS_CYCLE])
    def test_refund_of_no_principal_rejected(self, timing, fraction, purchase):
        # a zero refund used to fail inside run, naming neither argument
        with pytest.raises(ValueError) as exc:
            run_ddra("A", timing=timing, purchase_minor=purchase,
                     refund_fraction=fraction)
        assert str(exc.value) == (
            "refund_fraction must lie in (0, 1] and refund at least one minor "
            f"unit of purchase_minor, got {fraction} of {purchase}"
        )

    @pytest.mark.parametrize("purchase", [0, -5])
    @pytest.mark.parametrize("timing", [SAME_CYCLE, CROSS_CYCLE, CONTROL])
    def test_purchase_below_one_minor_unit_rejected_first(self, timing, purchase):
        # a zero purchase used to blame the refund fraction, a negative
        # one to fail inside the simulation
        for fraction in (Fraction(1), Fraction(0)):
            with pytest.raises(ValueError) as exc:
                build_ddra_scenario("A", timing=timing, purchase_minor=purchase,
                                    cycles=0, refund_fraction=fraction)
            assert str(exc.value) == (
                f"purchase_minor must be at least 1, got {purchase}")

    def test_control_ignores_the_refund_fraction(self):
        sc = build_ddra_scenario("A", timing=CONTROL, purchase_minor=1,
                                 refund_fraction=Fraction(0))
        assert all(e.kind == "purchase" for e in sc.events)


class TestVulnerableVariants:
    def test_a_retains_full_reward_every_cycle(self):
        o = run_ddra("A", timing=SAME_CYCLE, cycles=12)
        assert o.value_extracted == 6000  # 12 x 5.00
        assert o.redeemed_minor == 6000
        assert o.net_spend_final == 0
        assert o.restore_lags() == [None] * 12  # never clawed back

    def test_b_cross_cycle_extracts_after_auto_redeem(self):
        o = run_ddra("B", timing=CROSS_CYCLE, cycles=12)
        assert o.value_extracted == 6000
        assert o.redeemed_minor == 6000

    def test_b_same_cycle_netting_blocks_extraction(self):
        o = run_ddra("B", timing=SAME_CYCLE, cycles=12)
        assert o.value_extracted == 0
        assert o.redeemed_minor == 0

    def test_v3a_floor_discards_the_debt(self):
        o = run_ddra("V3a", timing=SAME_CYCLE, cycles=12)
        assert o.value_extracted == 6000
        assert o.balance_minor == 0  # never allowed to go negative


class TestResistantVariants:
    @pytest.mark.parametrize("variant", ["C", "D", "E", "defensive-instant",
                                         "defensive-cycle"])
    @pytest.mark.parametrize("timing", [SAME_CYCLE, CROSS_CYCLE])
    def test_nothing_survives_quiescence(self, variant, timing):
        o = run_ddra(variant, timing=timing, cycles=6)
        assert o.value_extracted == 0

    def test_f_recovers_but_leaves_a_float_window(self):
        o = run_ddra("F", timing=SAME_CYCLE, cycles=6)
        assert o.value_extracted == 0
        # refunded day 12, clawed back at the day-30 close
        assert o.restore_lags() == [18] * 6

    def test_c_claws_the_same_day(self):
        o = run_ddra("C", timing=SAME_CYCLE, cycles=6)
        assert o.restore_lags() == [0] * 6

    def test_partial_refund_scales_extraction(self):
        full = run_ddra("A", timing=CROSS_CYCLE, cycles=12)
        half = run_ddra("A", timing=CROSS_CYCLE, cycles=12,
                        refund_fraction=Fraction(1, 2))
        assert half.value_extracted == full.value_extracted // 2


class TestNetSpend:
    def test_read_from_the_log_only_on_access(self, monkeypatch):
        # no verdict reads the net spend, so the battery makes no pass for it
        passes = []

        def counted(log, as_of_day=None):
            passes.append(log)
            return net_spend(log, as_of_day)

        monkeypatch.setattr(harness, "net_spend", counted)
        o = run_ddra("C", timing=CROSS_CYCLE, cycles=3, refund_fraction=Fraction(1, 2))
        assert passes == []
        assert o.net_spend_final == net_spend(o.report.log) == 3 * 5000
        assert passes == [o.report.log]


class TestBattery:
    def test_battery_shape(self):
        outs = run_battery("C", cycles=3)
        assert [o.timing for o in outs] == [
            SAME_CYCLE, CROSS_CYCLE, CROSS_CYCLE, CONTROL
        ]
        fractions = [o.refund_fraction for o in outs]
        assert fractions[2] == Fraction(1, 2)

    def test_control_extracts_nothing_anywhere(self):
        for variant in ["A", "B", "C", "D", "E", "F", "V3a"]:
            o = run_ddra(variant, timing=CONTROL, cycles=3)
            assert o.value_extracted == 0, variant
