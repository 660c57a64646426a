"""The event-driven clock against the day-by-day reference loop.

``harness.run`` skips the days on which no state can change.  Each test
runs the same scenario through it and through ``reference_clock.run``,
which visits every day, and requires the same log bytes, final day,
balance and redeemed total, or the same error.
"""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_clock as ref
from rewardsim import EngineConfig, Scenario, ScenarioEvent, ScenarioInvalid, run
from rewardsim.adversary import BATTERY, CROSS_CYCLE, build_ddra_scenario
from rewardsim.harness import Simulation
from rewardsim.issuers import VARIANTS
from test_acceptance import _random_scenario

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.json"))


def outcome(run_fn, scenario):
    try:
        report = run_fn(scenario, daily_snapshots=False)
    except ScenarioInvalid as exc:
        return ("error", str(exc))
    return (
        [ev.to_json_line() for ev in report.log],
        report.final_day,
        report.ledger.balance,
        report.ledger.redeemed_total,
    )


def assert_same_run(scenario):
    expected = outcome(ref.run, scenario)
    assert outcome(run, scenario) == expected
    return expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_every_fixture(path):
    assert_same_run(Scenario.load(path))


def test_acceptance_sweep_scenarios():
    rng = random.Random(20261018)
    variants = ("defensive-instant", "defensive-cycle")
    for i in range(500):
        scenario, _ = _random_scenario(rng, variants[i % 2])
        assert_same_run(scenario)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ddra_battery(variant):
    for timing, fraction in BATTERY:
        scenario = build_ddra_scenario(variant, timing=timing, cycles=24,
                                       refund_fraction=fraction)
        lines, *_ = assert_same_run(scenario)
        assert lines


def test_sweep_after_the_last_intent_extends_the_horizon():
    # the day-35 purchase bounds the run at day 90; it settles at the
    # day-60 close, the grace hold ends on day 67 and the sweep posts
    # there, in period 2, which moves the horizon to the day-120 close
    scenario = Scenario(
        label="late-sweep",
        config=EngineConfig(reward_rate={"GROCERY": Fraction(5, 100)},
                            variant="defensive-cycle"),
        events=[ScenarioEvent(35, "purchase", "t1", 10000, "GROCERY")],
        auto_redeem=True,
    )
    lines, final_day, *_ = assert_same_run(scenario)
    assert [line for line in lines if '"kind": "redeem-request"' in line] == [
        '{"seq": 5, "day": 67, "kind": "redeem-request", "txn_id": "", '
        '"user": "u1", "amount_minor": -500, "category": "", "period": 2}']
    assert final_day == 120


def test_skipped_days_are_idle(monkeypatch):
    # the sweep runs once per visited day: on the cross-cycle battery it
    # sees only closes, intent days and hold ends; under a variant that
    # defers no work to a close, only intent days
    visited = []
    sweep = Simulation._sweep_policy

    def recording(self, day):
        visited.append(day)
        return sweep(self, day)

    monkeypatch.setattr(Simulation, "_sweep_policy", recording)
    scenario = build_ddra_scenario("defensive-cycle", timing=CROSS_CYCLE, cycles=12)
    report = run(scenario, daily_snapshots=False)
    config = scenario.config
    log_days = {ev.day for ev in report.log}
    hold_ends = {ev.day + config.grace_days for ev in report.log
                 if ev.kind == "hold-set"}
    closes = set(range(0, report.final_day + 1, config.period_length_days))
    assert visited == sorted(set(visited))
    assert set(visited) <= log_days | hold_ends | closes
    assert len(visited) < (report.final_day + 1) / 4

    visited.clear()
    scenario = build_ddra_scenario("defensive-instant", timing=CROSS_CYCLE, cycles=12)
    run(scenario, daily_snapshots=False)
    intent_days = {ev.day for ev in scenario.events}
    assert visited == sorted(intent_days)


@st.composite
def scenarios(draw):
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    period = draw(st.sampled_from([7, 30]))
    config = EngineConfig(
        reward_rate={"G": Fraction(draw(st.sampled_from([100, 500, 2500])), 10000)},
        monthly_cap=draw(st.sampled_from([{}, {"G": 700}])),
        b_min=draw(st.sampled_from([0, 1, 250, 10_000])),
        grace_days=draw(st.integers(0, period - 1)),
        period_length_days=period,
        variant=variant,
        delivery_delay_days=draw(st.sampled_from([0, 0, 1, 3, 9, 40])),
    )
    events = []
    for i in range(draw(st.integers(0, 4))):
        txn_id = f"t{i}"
        day = draw(st.integers(0, 90))
        amount = draw(st.integers(1, 500)) * 100
        events.append(ScenarioEvent(day, "purchase", txn_id, amount, "G"))
        remaining = amount
        for _ in range(draw(st.integers(0, 2))):
            if remaining <= 0:
                break
            x = draw(st.integers(1, remaining))
            events.append(ScenarioEvent(day + draw(st.integers(0, 45)), "refund",
                                        txn_id, x))
            remaining -= x
        if draw(st.integers(0, 3)) == 0:
            events.append(ScenarioEvent(day + draw(st.integers(0, 60)),
                                        "chargeback", txn_id))
    for _ in range(draw(st.integers(0, 2))):
        events.append(ScenarioEvent(draw(st.integers(0, 120)), "redeem-request",
                                    amount_minor=draw(st.integers(1, 3000))))
    return Scenario(label="clock", config=config, events=events,
                    auto_redeem=draw(st.booleans()))


def under(scenario, variant):
    """``scenario`` with its config's variant set to ``variant``."""
    config = scenario.config
    kw = {name: getattr(config, name) for name in EngineConfig._fields}
    return Scenario(scenario.label, EngineConfig(**{**kw, "variant": variant}),
                    scenario.events, scenario.auto_redeem, scenario.user)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_random_scenarios(scenario):
    assert_same_run(scenario)
