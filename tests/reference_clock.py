"""Reference clock: the original day-by-day simulation loop, kept
unchanged as a test-only oracle.

``rewardsim.harness.run`` visits only the days on which state can
change; ``tests/test_clock.py`` asserts that it gives the same log,
final day, balance and redeemed total as this loop, which visits every
day from 0 to the horizon.
"""

from __future__ import annotations

from rewardsim.harness import (
    SCENARIO_KINDS,
    Scenario,
    ScenarioInvalid,
    Simulation,
    SimulationReport,
    default_consistency_window,
)
from rewardsim.invariants import check_rrc, integrity_series
from rewardsim.ledger import TransactionStatus


def run(scenario: Scenario, daily_snapshots: bool = True) -> SimulationReport:
    """Execute a scenario to quiescence.

    The horizon runs one full period past the period of the last intent,
    so every deferred settlement, clawback, and hold has resolved when
    the report is produced.  An empty scenario produces an empty log.
    """
    sim = Simulation(scenario.config, user=scenario.user)
    config = scenario.config
    # checked before the sort, so a text day cannot fail inside it; bool
    # is an int subclass, and a float day or amount would reach the ledger
    for index, ev in enumerate(scenario.events):
        for name in ("day", "amount_minor"):
            value = getattr(ev, name)
            if type(value) is not int:
                raise ScenarioInvalid(
                    f"event {index}: {name} must be an integer, got {value!r}"
                )
        for name in ("kind", "txn_id", "category"):
            value = getattr(ev, name)
            if type(value) is not str:
                raise ScenarioInvalid(
                    f"event {index}: {name} must be a string, got {value!r}"
                )
        if ev.kind not in SCENARIO_KINDS:
            raise ScenarioInvalid(f"unknown scenario event kind {ev.kind!r}")
        if ev.day < 0:
            raise ScenarioInvalid(f"negative day {ev.day}")
    events = sorted(scenario.events, key=lambda e: e.day)
    if events:
        # the last scenario intent bounds the run before it posts
        sim._note_intent(events[-1].day)

    by_day: dict[int, list] = {}
    for ev in events:
        by_day.setdefault(ev.day, []).append(ev)

    day = 0
    while day <= sim.final_day:
        if day > 0 and day % config.period_length_days == 0:
            sim.close_period(day // config.period_length_days - 1)
        while sim._due_settlements and sim._due_settlements[0][0] <= day:
            _, txn_id = sim._due_settlements.pop(0)
            txn = sim.txns[txn_id]
            if txn.status is TransactionStatus.PENDING:
                sim._settle_instant(day, txn)
        for ev in by_day.get(day, []):
            if ev.kind == "purchase":
                sim.purchase(day, ev.txn_id, ev.amount_minor, ev.category)
            elif ev.kind == "refund":
                sim.refund(day, ev.txn_id, ev.amount_minor)
            elif ev.kind == "chargeback":
                sim.chargeback(day, ev.txn_id)
            elif ev.kind == "redeem-request":
                sim.redeem_request(day, ev.amount_minor)
        if scenario.auto_redeem:
            # a sweep posts an intent, which moves the horizon as any
            # scenario intent does, so a replay runs the same closes
            sim._sweep_policy(day)
        day += 1

    report = SimulationReport(
        label=scenario.label,
        config=config,
        ledger=sim.ledger,
        log=sim.log,
        final_day=max(sim.final_day, 0),
    )
    if daily_snapshots:
        report.snapshots = integrity_series(sim.log, config)
        report.rrc = check_rrc(sim.log, default_consistency_window(config), config)
    return report
