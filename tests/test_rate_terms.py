"""The integer forms of rate arithmetic against the Fraction forms they
replace: the config's range check, the attack's refund and the rate
roundings read a rate's ``numerator`` and ``denominator`` and compare
integers, and must decide every value as the Fraction expressions do."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardsim import ConfigError, EngineConfig, rate_ceil, rate_floor
from rewardsim.adversary import CONTROL, CROSS_CYCLE, SAME_CYCLE, build_ddra_scenario

fractions = st.builds(Fraction, st.integers(min_value=-3, max_value=15),
                      st.integers(min_value=1, max_value=12))
purchases = st.integers(min_value=1, max_value=10**6)
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


@EXAMPLES
@given(rate=fractions)
def test_config_accepts_exactly_the_rates_in_the_unit_interval(rate):
    if 0 <= rate <= 1:
        assert EngineConfig(reward_rate={"G": rate}).rate("G") == rate
    else:
        with pytest.raises(ConfigError) as exc:
            EngineConfig(reward_rate={"G": rate})
        assert str(exc.value) == f"rate for 'G' outside [0,1]: {rate}"


@EXAMPLES
@given(rate=fractions, amount=purchases)
def test_rate_roundings_are_floor_and_ceil_of_the_product(rate, amount):
    if rate < 0:
        for rounding in (rate_floor, rate_ceil):
            with pytest.raises(ValueError) as exc:
                rounding(rate, amount)
            assert str(exc.value) == f"rate must be non-negative, got {rate}"
    else:
        assert rate_floor(rate, amount) == math.floor(rate * amount)
        assert rate_ceil(rate, amount) == math.ceil(rate * amount)


@EXAMPLES
@given(fraction=fractions, purchase=purchases,
       timing=st.sampled_from([SAME_CYCLE, CROSS_CYCLE]))
def test_refund_is_the_truncated_fraction_of_the_purchase(fraction, purchase, timing):
    # the Fraction form the integer terms replace, and its verdict
    refund = int(fraction * purchase)
    if not 0 < fraction <= 1 or refund == 0:
        with pytest.raises(ValueError) as exc:
            build_ddra_scenario("A", timing=timing, purchase_minor=purchase,
                                cycles=1, refund_fraction=fraction)
        assert str(exc.value) == (
            "refund_fraction must lie in (0, 1] and refund at least one minor "
            f"unit of purchase_minor, got {fraction} of {purchase}")
    else:
        sc = build_ddra_scenario("A", timing=timing, purchase_minor=purchase,
                                 cycles=1, refund_fraction=fraction)
        assert [e.amount_minor for e in sc.events] == [purchase, refund]


class TestRefundFractionType:
    @pytest.mark.parametrize("fraction", [0.5, 1.0, "1/2", None])
    @pytest.mark.parametrize("timing", [SAME_CYCLE, CROSS_CYCLE, CONTROL])
    def test_a_value_without_integer_terms_is_refused(self, timing, fraction):
        with pytest.raises(ValueError) as exc:
            build_ddra_scenario("A", timing=timing, refund_fraction=fraction)
        assert str(exc.value) == (
            f"refund_fraction must be an int or a Fraction, got {fraction!r}")

    def test_timing_is_named_first(self):
        with pytest.raises(ValueError) as exc:
            build_ddra_scenario("A", timing="sideways", refund_fraction=0.5)
        assert str(exc.value) == "unknown attack timing 'sideways'"

    def test_ints_and_bools_refund_as_before(self):
        for whole in (1, True):
            sc = build_ddra_scenario("A", purchase_minor=300, cycles=1,
                                     refund_fraction=whole)
            assert [e.amount_minor for e in sc.events] == [300, 300]
        for none in (0, False):
            with pytest.raises(ValueError) as exc:
                build_ddra_scenario("A", purchase_minor=300, refund_fraction=none)
            assert str(exc.value).endswith(f"got {none} of 300")
