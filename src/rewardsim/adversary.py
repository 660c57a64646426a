"""The double-dip refund attack and the standard evaluation battery.

The attack repeats a four-step loop against an issuer variant: buy in a
rewarded category, collect the reward, redeem it as soon as the gate
allows, then refund the purchase.  Whether any value survives to
quiescence, and how many days each refund leaves Refund Reward
Consistency (RRC) unrestored, are the two numbers the comparison matrix
is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass
class AttackOutcome:
    variant: str
    timing: str
    purchase_minor: int
    cycles: int
    refund_fraction: Fraction
    net_reward_final: int
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


def attack_config(variant: str) -> EngineConfig:
    return EngineConfig(
        reward_rate={ATTACK_CATEGORY: ATTACK_RATE},
        monthly_cap={ATTACK_CATEGORY: ATTACK_CAP_MINOR},
        b_min=0,
        grace_days=7,
        period_length_days=30,
        variant=variant,
    )


def build_ddra_scenario(
    variant: str,
    timing: str = SAME_CYCLE,
    purchase_minor: int = DEFAULT_PURCHASE_MINOR,
    cycles: int = DEFAULT_CYCLES,
    refund_fraction: Fraction = Fraction(1),
) -> Scenario:
    """One purchase-and-refund pair per billing cycle.

    Same-cycle refunds land mid-cycle, before the statement closes.
    Cross-cycle refunds land early in the following cycle, after any
    close-time settlement has already credited the reward.
    """
    if purchase_minor < 1:
        raise ValueError(f"purchase_minor must be at least 1, got {purchase_minor}")
    if cycles < 1:
        raise ValueError(f"cycles must be at least 1, got {cycles}")
    refund_minor = int(refund_fraction * purchase_minor)
    if timing in (SAME_CYCLE, CROSS_CYCLE) and (
        not 0 < refund_fraction <= 1 or refund_minor == 0
    ):
        raise ValueError(
            f"refund_fraction must lie in (0, 1] and refund at least one minor "
            f"unit of purchase_minor, got {refund_fraction} of {purchase_minor}"
        )
    config = attack_config(variant)
    length = config.period_length_days
    events = []
    for k in range(cycles):
        txn_id = f"t{k:03d}"
        if timing == SAME_CYCLE:
            p_day, r_day = k * length + 2, k * length + 12
        elif timing == CROSS_CYCLE:
            p_day, r_day = k * length + 20, (k + 1) * length + 5
        elif timing == CONTROL:
            p_day, r_day = k * length + 2, None
        else:
            raise ValueError(f"unknown attack timing {timing!r}")
        # day, kind, txn_id, amount_minor, category
        events.append(
            ScenarioEvent(p_day, "purchase", txn_id, purchase_minor, ATTACK_CATEGORY)
        )
        if r_day is not None:
            events.append(ScenarioEvent(r_day, "refund", txn_id, refund_minor))
    return Scenario(
        label=f"ddra-{variant}-{timing}",
        config=config,
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
        net_reward_final=reward,
        redeemed_minor=report.ledger.redeemed_total,
        balance_minor=report.ledger.balance,
        value_extracted=max(0, reward - bound),
        report=report,
    )


def run_battery(variant: str, cycles: int = DEFAULT_CYCLES) -> list:
    """The fixed four-scenario battery the comparison matrix is scored on."""
    return [
        run_ddra(variant, timing=SAME_CYCLE, cycles=cycles),
        run_ddra(variant, timing=CROSS_CYCLE, cycles=cycles),
        run_ddra(variant, timing=CROSS_CYCLE, cycles=cycles,
                 refund_fraction=Fraction(1, 2)),
        run_ddra(variant, timing=CONTROL, cycles=cycles),
    ]
