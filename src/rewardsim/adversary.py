"""The double-dip refund attack and the standard evaluation battery.

The attack repeats a four-step loop against an issuer variant: buy in a
rewarded category, collect the reward, redeem it as soon as the gate
allows, then refund the purchase.  Whether any value survives to
quiescence, and how many days each refund leaves Refund Reward
Consistency (RRC) unrestored, are the two numbers the comparison matrix
is built from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .harness import Scenario, ScenarioEvent, SimulationReport, run
from .invariants import check_rrc, net_reward_from_log, oracle_bound
from .ledger import EngineConfig

SAME_CYCLE = "same-cycle"
CROSS_CYCLE = "cross-cycle"
CONTROL = "control"

ATTACK_CATEGORY = "GROCERY"
ATTACK_RATE = Fraction(5, 100)
ATTACK_CAP_MINOR = 50_00
DEFAULT_PURCHASE_MINOR = 100_00
DEFAULT_CYCLES = 12


class AttackOutcome(NamedTuple):
    variant: str
    timing: str
    purchase_minor: int
    cycles: int
    refund_fraction: Fraction
    redeemed_minor: int
    balance_minor: int
    value_extracted: int
    report: SimulationReport

    @property
    def net_spend_final(self) -> int:
        """Principal still spent at quiescence, read from the log on access;
        no verdict reads it."""
        return self.report.net_spend

    def restore_lags(self) -> list:
        """Per reversal, days from refund until RRC is restored; None when
        it never is."""
        return [
            None if v.restored_day is None else v.restored_day - v.refund_day
            for v in check_rrc(self.report.log, 0, self.report.config)
        ]


CYCLE_DAYS = 30


def attack_config(variant: str) -> EngineConfig:
    return EngineConfig(
        reward_rate={ATTACK_CATEGORY: ATTACK_RATE},
        monthly_cap={ATTACK_CATEGORY: ATTACK_CAP_MINOR},
        b_min=0,
        grace_days=7,
        period_length_days=CYCLE_DAYS,
        variant=variant,
    )


# each timing's purchase and refund day within a cycle (a refund past the
# cycle lands after its close); the control never refunds
TIMINGS = {SAME_CYCLE: (2, 12), CROSS_CYCLE: (20, CYCLE_DAYS + 5), CONTROL: (2, None)}
# the (timing, refund fraction) of each scenario the matrix is scored on
BATTERY = ((SAME_CYCLE, Fraction(1)), (CROSS_CYCLE, Fraction(1)),
           (CROSS_CYCLE, Fraction(1, 2)), (CONTROL, Fraction(1)))


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
    # only an int or a Fraction has exact integer terms
    if not isinstance(refund_fraction, (int, Fraction)):
        raise ValueError(
            f"refund_fraction must be an int or a Fraction, got {refund_fraction!r}")
    # the integer terms give int(refund_fraction * purchase_minor) for every
    # fraction in (0, 1] without Fraction's Python-level arithmetic
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
        # day, kind, txn_id, amount_minor, category; tuple.__new__ skips
        # the named tuple's Python-level __new__
        events.append(tuple.__new__(ScenarioEvent, (
            start + buy, "purchase", txn_id, purchase_minor, ATTACK_CATEGORY)))
        if refund is not None:
            events.append(tuple.__new__(ScenarioEvent, (
                start + refund, "refund", txn_id, refund_minor, "")))
    return Scenario(
        label=f"ddra-{variant}-{timing}",
        config=attack_config(variant),
        events=events,
        auto_redeem=True,
        user="attacker",
    )


def run_ddra(
    variant: str,
    timing: str = SAME_CYCLE,
    purchase_minor: int = DEFAULT_PURCHASE_MINOR,
    cycles: int = DEFAULT_CYCLES,
    refund_fraction: Fraction = Fraction(1),
) -> AttackOutcome:
    """Run the attack to quiescence and measure what survives."""
    scenario = build_ddra_scenario(
        variant, timing=timing, purchase_minor=purchase_minor,
        cycles=cycles, refund_fraction=refund_fraction,
    )
    report = run(scenario, daily_snapshots=False)
    reward = net_reward_from_log(report.log)
    bound = oracle_bound(report.log, scenario.config)
    return AttackOutcome(
        variant=variant,
        timing=timing,
        purchase_minor=purchase_minor,
        cycles=cycles,
        refund_fraction=refund_fraction,
        redeemed_minor=report.ledger.redeemed_total,
        balance_minor=report.ledger.balance,
        value_extracted=max(0, reward - bound),
        report=report,
    )


def run_battery(variant: str, cycles: int = DEFAULT_CYCLES) -> list:
    """The ``BATTERY`` scenarios the comparison matrix is scored on, in order."""
    return [run_ddra(variant, timing=timing, cycles=cycles, refund_fraction=fraction)
            for timing, fraction in BATTERY]
