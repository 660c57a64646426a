"""Rounding never favours the user: Reward Integrity holds on every day.

A grant rounds down and a clawback rounds up, telescoped, so the reward
a transaction keeps on its remaining principal is at most the rate on
it (README, "Rounding").  Summed over a (period, category) bucket, that
keeps every day's net reward within the bound ``integrity_series``
computes.  Under C and defensive-instant, which claw back each refund
when it posts and never floor the balance, nothing else can lift the
net reward above that bound, so every snapshot must be ok.

The schedules are drawn to make clawbacks round: small purchases, so
grants are a few cents, refunds of any part of the principal, several
categories at rates whose shares are rarely whole cents, caps small
enough to bind, chargebacks, redemption requests, and the close's
sweep on and off.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rewardsim import (
    EngineConfig,
    Scenario,
    ScenarioEvent,
    integrity_series,
    net_reward_from_log,
    run,
)

# category -> (rate in basis points, the least amount whose grant is a
# whole number of cents)
RATES = {"G": (500, 20), "D": (300, 100), "O": (150, 200)}


@st.composite
def rounding_scenarios(draw):
    categories = draw(st.lists(st.sampled_from(sorted(RATES)), min_size=2,
                               max_size=3, unique=True))
    caps = {}
    for category in categories:
        cap = draw(st.sampled_from([None, None, None, 10, 40]))
        if cap is not None:
            caps[category] = cap
    config = EngineConfig(
        reward_rate={c: Fraction(RATES[c][0], 10000) for c in categories},
        monthly_cap=caps,
        grace_days=0,
        period_length_days=draw(st.sampled_from([7, 30, 30])),
        variant=draw(st.sampled_from(["C", "defensive-instant"])),
    )
    events = []
    for i in range(draw(st.integers(3, 8))):
        txn_id = f"t{i}"
        day = draw(st.integers(0, 25))
        # most purchases go to the first category, in whole-cent grants:
        # a residue then comes only from the clawback's rounding
        category = draw(st.sampled_from(categories[:1] * 3 + categories[1:]))
        amount = draw(st.one_of(st.integers(1, 15).map(lambda k: k * RATES[category][1]),
                                st.integers(20, 400)))
        events.append(ScenarioEvent(day, "purchase", txn_id, amount, category))
        remaining = amount
        for _ in range(draw(st.integers(1, 2))):
            if remaining <= 1:
                break
            x = draw(st.integers(1, remaining - 1))
            events.append(ScenarioEvent(day + draw(st.integers(0, 20)), "refund",
                                        txn_id, x))
            remaining -= x
        if draw(st.integers(0, 7)) == 0:
            events.append(ScenarioEvent(day + draw(st.integers(21, 40)),
                                        "chargeback", txn_id))
    for _ in range(draw(st.integers(0, 2))):
        events.append(ScenarioEvent(draw(st.integers(0, 60)), "redeem-request",
                                    amount_minor=draw(st.integers(1, 30))))
    return Scenario(label="rounding", config=config, events=events,
                    auto_redeem=draw(st.booleans()))


def broken_days(scenario) -> list:
    report = run(scenario, daily_snapshots=False)
    return [s for s in integrity_series(report.log, report.config) if not s.ok]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenario=rounding_scenarios())
def test_integrity_holds_on_every_day(scenario):
    assert broken_days(scenario) == []


def test_many_rounded_refunds_keep_nothing_the_rate_does_not_allow():
    # n purchases of $1.00 at 5%, each refunded $0.90: the bound on the
    # 10 cents kept per purchase is n/2 cents, and each claw of 4.5
    # cents rounds up, so no reward is left; the sweep paid the grants
    # out before the refunds, so the balance is their debt
    events = []
    for i in range(100):
        events.append(ScenarioEvent(1, "purchase", f"t{i}", 100, "G"))
        events.append(ScenarioEvent(2, "refund", f"t{i}", 90))
    config = EngineConfig(reward_rate={"G": Fraction(5, 100)}, variant="C")
    report = run(Scenario("hundred", config, events, auto_redeem=True))
    assert net_reward_from_log(report.log) == 0
    assert -report.ledger.balance == report.ledger.redeemed_total == 500
    assert all(s.ok for s in report.snapshots)
