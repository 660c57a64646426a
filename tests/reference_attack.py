"""Reference attack builder: ``attack_config`` and ``build_ddra_scenario``
as they were before the builder cached anything, kept as a test-only
oracle.  Every call checks and builds a new config and a new list of
new events.

``rewardsim.adversary`` holds one config per preset for the process and
keeps the last ``len(BATTERY)`` schedules; ``tests/test_attack_cache.py``
asserts that it builds equal scenarios, runs byte-identical logs and
refuses the same arguments with the same messages as these functions.
"""

from __future__ import annotations

from fractions import Fraction

from rewardsim.adversary import (
    ATTACK_CAP_MINOR,
    ATTACK_CATEGORY,
    ATTACK_RATE,
    CYCLE_DAYS,
    DEFAULT_CYCLES,
    DEFAULT_PURCHASE_MINOR,
    SAME_CYCLE,
    TIMINGS,
)
from rewardsim.harness import Scenario, ScenarioEvent
from rewardsim.ledger import EngineConfig


def attack_config(variant: str) -> EngineConfig:
    return EngineConfig(
        reward_rate={ATTACK_CATEGORY: ATTACK_RATE},
        monthly_cap={ATTACK_CATEGORY: ATTACK_CAP_MINOR},
        b_min=0,
        grace_days=7,
        period_length_days=CYCLE_DAYS,
        variant=variant,
    )


def build_ddra_scenario(
    variant: str,
    timing: str = SAME_CYCLE,
    purchase_minor: int = DEFAULT_PURCHASE_MINOR,
    cycles: int = DEFAULT_CYCLES,
    refund_fraction: Fraction = Fraction(1),
) -> Scenario:
    """One purchase-and-refund pair per billing cycle, on the days
    ``TIMINGS`` gives ``timing``."""
    if purchase_minor < 1:
        raise ValueError(f"purchase_minor must be at least 1, got {purchase_minor}")
    if cycles < 1:
        raise ValueError(f"cycles must be at least 1, got {cycles}")
    try:
        buy, refund = TIMINGS[timing]
    except KeyError:
        raise ValueError(f"unknown attack timing {timing!r}") from None
    if not isinstance(refund_fraction, (int, Fraction)):
        raise ValueError(
            f"refund_fraction must be an int or a Fraction, got {refund_fraction!r}")
    n, d = refund_fraction.numerator, refund_fraction.denominator
    refund_minor = n * purchase_minor // d
    if refund is not None and (not 0 < n <= d or refund_minor == 0):
        raise ValueError(
            f"refund_fraction must lie in (0, 1] and refund at least one minor "
            f"unit of purchase_minor, got {refund_fraction} of {purchase_minor}"
        )
    events = []
    for k in range(cycles):
        txn_id, start = f"t{k:03d}", k * CYCLE_DAYS
        events.append(ScenarioEvent(start + buy, "purchase", txn_id, purchase_minor,
                                    ATTACK_CATEGORY))
        if refund is not None:
            events.append(ScenarioEvent(start + refund, "refund", txn_id, refund_minor, ""))
    return Scenario(
        label=f"ddra-{variant}-{timing}",
        config=attack_config(variant),
        events=events,
        auto_redeem=True,
        user="attacker",
    )
