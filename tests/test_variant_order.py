"""Cross-variant relations: the paper's spectrum of issuers as an oracle.

The paper orders its issuers from A, which never adjusts a reward, to
the robust ones.  Every scenario can run under all nine variants, so
each Hypothesis draw (``schedules``) runs under each of them, and pairs
of variants that differ in one policy field must keep their order on
every draw, not only on the four-scenario attack battery.  Each
variant's run is measured from its log:

- ``extraction``: ``max(0, net reward - oracle_bound)``;
- ``redeemed``: the redeemed total;
- ``final`` and ``lowest``: the final and the lowest running balance;
- ``log``: the log's lines.

Whether a draw is refused, and with which message, depends only on
``instant``: a purchase that credits at the close can still be PENDING
when a chargeback comes, but no other policy field moves a refusal.

A fixed-amount redeem-request is all-or-nothing, so a variant that
denies one can end ahead of a variant that pays it.  The relations on
redemptions and balances are therefore pinned only on draws without
one, where the sweep is the only redemption.

Left unpinned because they fail on draws without a redeem-request:

- ``F``'s final balance at most ``C``'s;
- crediting at the close (``F`` -> ``D``) redeeming no more and going
  no lower.  A capped grant that ``F`` claws back in proportion and
  ``D`` grants net of the refund, and ceilings taken on different
  bases, leave either one a minor unit ahead.  With a 700 cap on a
  5% category in a 7-day period, purchases of 100 and 14,000 on day 0,
  refunds of 1 and 10 of the second the same day, a purchase of 100 on
  day 7 and the sweep on, ``D`` redeems 705 and ``F`` 704.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rewardsim import EngineConfig, Scenario, ScenarioEvent, ScenarioInvalid, run
from rewardsim.invariants import net_reward_from_log, oracle_bound
from rewardsim.issuers import VARIANTS
from rewardsim.ledger import REWARD_KINDS
from test_clock import scenarios, under

# (low, high, metric): low's metric is never above high's, on every draw
NEVER_ABOVE = [
    ("C", "V3a", "extraction"),  # floors_at_zero on
    ("C", "A", "extraction"),  # refund_adjustment immediate -> none
]
# the same, on draws whose only redemptions are the sweep's
NEVER_ABOVE_SWEEP_ONLY = [
    ("C", "V3a", "redeemed"),  # floors_at_zero on
    ("C", "V3a", "final"),
    ("C", "V3a", "lowest"),
    ("defensive-cycle", "D", "redeemed"),  # uses_grace_hold on
    ("D", "defensive-cycle", "final"),
    ("D", "defensive-cycle", "lowest"),
]
# (a, b, metric): a's metric equals b's on every draw
EQUAL = [
    ("C", "F", "extraction"),  # refund_adjustment immediate -> statement-close
    ("D", "defensive-cycle", "extraction"),  # uses_grace_hold on
    ("C", "defensive-instant", "log"),  # the same policy fields, byte for byte
    ("D", "E", "log"),
]
# kinds that move the balance: grants, clawbacks and redemptions
BALANCE_KINDS = REWARD_KINDS | {"redeem"}


@st.composite
def schedules(draw):
    """A ``test_clock.scenarios`` draw with a second category, H, which
    may be capped and which each purchase takes with even odds.  The
    sweep is on in three draws of four and half the draws drop their
    redeem-requests, so most draws test the sweep-only relations; and
    half the draws take ``b_min`` 0, so the sweep empties the balance."""
    base = draw(scenarios())
    c = base.config
    rate = Fraction(draw(st.sampled_from([100, 500, 2500])), 10000)
    config = EngineConfig(
        reward_rate={**c.reward_rate, "H": rate},
        monthly_cap={**c.monthly_cap, **draw(st.sampled_from([{}, {"H": 400}]))},
        b_min=draw(st.sampled_from([0, c.b_min])), grace_days=c.grace_days,
        period_length_days=c.period_length_days,
        delivery_delay_days=c.delivery_delay_days,
    )
    events = [e._replace(category="H")
              if e.kind == "purchase" and draw(st.booleans()) else e
              for e in base.events]
    if draw(st.booleans()):
        events = [e for e in events if e.kind != "redeem-request"]
    return Scenario(label="order", config=config, events=events,
                    auto_redeem=draw(st.sampled_from([True, True, True, False])))


def measure(scenario):
    """Each variant's log lines and metrics, or the message it refuses
    the scenario with."""
    runs = {}
    for variant in VARIANTS:
        try:
            report = run(under(scenario, variant), daily_snapshots=False)
        except ScenarioInvalid as exc:
            runs[variant] = str(exc)
            continue
        balance = lowest = 0
        for ev in report.log:
            if ev.kind in BALANCE_KINDS:
                balance += ev.amount_minor
                lowest = min(lowest, balance)
        assert balance == report.ledger.balance
        reward = net_reward_from_log(report.log)
        runs[variant] = {
            "log": [ev.to_json_line() for ev in report.log],
            "extraction": max(0, reward - oracle_bound(report.log, report.config)),
            "redeemed": report.ledger.redeemed_total,
            "final": balance,
            "lowest": lowest,
        }
    return runs


# a chargeback of principal refunded in full, which a refund deferred to
# the close leaves SETTLED until then
FULLY_REFUNDED = Scenario(label="order", config=EngineConfig(), events=[
    ScenarioEvent(1, "purchase", "t1", 10000, "G"),
    ScenarioEvent(35, "refund", "t1", 10000),
    ScenarioEvent(40, "chargeback", "t1"),
])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenario=schedules())
@example(scenario=FULLY_REFUNDED)
def test_variant_relations(scenario):
    runs = measure(scenario)
    refusals = {variant: got for variant, got in runs.items() if isinstance(got, str)}
    for instant in (False, True):
        group = {variant: refusals.get(variant) for variant, point in VARIANTS.items()
                 if point.instant == instant}
        assert len(set(group.values())) == 1, group
    if refusals:
        return
    relations = NEVER_ABOVE
    if all(e.kind != "redeem-request" for e in scenario.events):
        relations = NEVER_ABOVE + NEVER_ABOVE_SWEEP_ONLY
    for low, high, metric in relations:
        assert runs[low][metric] <= runs[high][metric], (low, high, metric)
    for a, b, metric in EQUAL:
        assert runs[a][metric] == runs[b][metric], (a, b, metric)
