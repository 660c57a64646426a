"""At quiescence each transaction's reward state tells the log's story.

A ``Transaction`` carries its own reward state: ``reward_original``,
``total_refunded`` and ``claw_base``.  The event log is the source of
truth, so once ``run`` has reached quiescence every transaction must be:

- settled or cancelled, never PENDING;
- granted, in ``reward_original``, the sum of its grant events;
- refunded, in ``total_refunded``, the principal its refund and
  chargeback intents reversed in the log, which is also the harness's
  intent tally ``Simulation.reversed``;
- left, as its net reward in the log, ``reward_original`` less the
  telescoped claw of the principal refunded since settlement, that
  share of ``reward_original`` rounded up.  Under
  ``refund_adjustment == "none"`` nothing is clawed.  Under
  ``floors_at_zero`` a claw may be cut short by the balance, so the
  net reward is not checked there.

And at every step, not just at quiescence: after each refund,
chargeback and statement close, every transaction's ``total_refunded``
plus its principal still deferred to the close in ``late_refunds`` is
the harness's tally ``Simulation.reversed``.  The record counts each
reversal when it posts; only a deferred refund waits for the close.

The runs are the fixtures, the attack battery under every variant, and
a fixed Hypothesis sample of schedules under every variant.  A scenario
the harness refuses stops mid-run, is not quiescent, and is passed over.
"""

import contextlib
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings

from rewardsim import Scenario, ScenarioInvalid, engine, harness, run
from rewardsim.adversary import BATTERY, build_ddra_scenario
from rewardsim.issuers import ADJ_NONE, VARIANTS
from rewardsim.ledger import GRANT_KINDS, PENDING, REVERSAL_KINDS, REWARD_KINDS
from test_clock import scenarios, under

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.json"))


def check_tally(sim, step: str) -> None:
    """Assert the step clause of the module docstring on every
    transaction of ``sim``, just after ``step``."""
    deferred = Counter()
    for txn, x in sim.late_refunds:
        deferred[txn.id] += x
    for txn_id, txn in sim.txns.items():
        assert (sim.reversed.get(txn_id, 0)
                == txn.total_refunded + deferred[txn_id]), f"after {step}: {txn_id}"


@contextlib.contextmanager
def captured_simulations():
    """Yield a list that collects each ``Simulation`` that ``run`` builds.
    Each checks its tally after every refund, chargeback and close."""
    sims = []

    class Captured(harness.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

        def refund(self, day, txn_id, x):
            super().refund(day, txn_id, x)
            check_tally(self, f"refund of {txn_id} on day {day}")

        def chargeback(self, day, txn_id):
            super().chargeback(day, txn_id)
            check_tally(self, f"chargeback of {txn_id} on day {day}")

        def close_period(self, period):
            super().close_period(period)
            check_tally(self, f"close of period {period}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Simulation", Captured)
        yield sims


def check_records(scenario) -> int:
    """Run ``scenario`` and assert every clause of the module docstring on
    each of its transactions; returns how many were checked."""
    with captured_simulations() as sims:
        try:
            run(scenario, daily_snapshots=False)
        except ScenarioInvalid:
            return 0
    (sim,) = sims
    granted, reversed_in_log, net = Counter(), Counter(), Counter()
    for ev in sim.log:
        if ev.kind in GRANT_KINDS:
            granted[ev.txn_id] += ev.amount_minor
        if ev.kind in REWARD_KINDS:
            net[ev.txn_id] += ev.amount_minor
        elif ev.kind in REVERSAL_KINDS:
            reversed_in_log[ev.txn_id] -= ev.amount_minor
    variant = sim.variant
    for txn_id, txn in sim.txns.items():
        where = f"{scenario.label} under {scenario.config.variant}: {txn_id}"
        assert txn.status is not PENDING, where
        assert txn.reward_original == granted[txn_id], where
        assert (txn.total_refunded == reversed_in_log[txn_id]
                == sim.reversed.get(txn_id, 0)), where
        if variant.refund_adjustment == ADJ_NONE:
            assert net[txn_id] == txn.reward_original, where
        elif not variant.floors_at_zero:
            since_settlement = txn.total_refunded - (txn.amount - txn.claw_base)
            # the claw's share of the grant, rounded up
            clawed = -(-since_settlement * txn.reward_original // txn.claw_base)
            assert net[txn_id] == txn.reward_original - clawed, where
    return len(sim.txns)


def test_fixtures():
    assert sum(check_records(Scenario.load(path)) for path in FIXTURES) > 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_attack_battery(variant):
    checked = sum(check_records(build_ddra_scenario(variant, timing=timing,
                                                    refund_fraction=fraction))
                  for timing, fraction in BATTERY)
    assert checked > 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_random_scenarios_under_every_variant(scenario):
    for variant in sorted(VARIANTS):
        check_records(under(scenario, variant))


def test_a_record_the_log_does_not_show_fails(monkeypatch):
    # the check reads the record: one cent more than the grant is caught
    settle = engine.reward_on_settlement

    def overstated(ledger, txn, *args, **kwargs):
        r = settle(ledger, txn, *args, **kwargs)
        txn.reward_original += 1
        return r

    monkeypatch.setattr(engine, "reward_on_settlement", overstated)
    with pytest.raises(AssertionError):
        check_records(build_ddra_scenario("C"))


def test_a_pending_refund_the_record_does_not_count_fails(monkeypatch):
    # the step check reads the record as each refund posts: a refund of a
    # pending purchase left to be netted in at settlement is caught
    count = engine.refund_principal

    def deferred_while_pending(txn, x):
        if txn.status is not PENDING:
            count(txn, x)

    monkeypatch.setattr(engine, "refund_principal", deferred_while_pending)
    with pytest.raises(AssertionError, match="after refund of"):
        check_records(Scenario.load(FIXTURES[0].parent / "close_refunds_cycle.json"))
