"""Differential tests: the streaming fold against the rescanning reference.

``integrity_series`` and ``check_rrc`` answer every "as of day d"
question from one pass over the log; ``reference_invariants`` rebuilds
the log state for each day instead.  Both must return equal dataclasses
on engine logs of every variant and on arbitrary hand-built logs.

The attack battery's lags are RRC restore lags; wherever ``classify``
and ``attack`` read them, they must agree with the reference rescan of
days from each refund to its transaction's next clawback.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_invariants as ref
from rewardsim import (
    EngineConfig,
    EventLog,
    LogInvalid,
    Scenario,
    ScenarioEvent,
    check_rrc,
    entitlement_bound,
    integrity_series,
    oracle_bound,
    run,
    run_battery,
    run_ddra,
)
from rewardsim.adversary import CONTROL, CROSS_CYCLE, SAME_CYCLE, AttackOutcome
from rewardsim.issuers import VARIANTS, classify
from test_acceptance import _random_scenario

DELTAS = (0, 1, 7, 30, 10**6)


def assert_same(log, config, deltas=DELTAS):
    assert integrity_series(log, config) == ref.integrity_series(log, config)
    for delta in deltas:
        assert check_rrc(log, delta, config) == ref.check_rrc(log, delta, config)


def heavy_scenario(variant, seed, purchases=40, days=150):
    """A busy account whose refunds cross statement closes.

    Three categories (two capped), one or two partial refunds, full
    refunds, chargebacks after the close (some on partly refunded
    purchases), and redeem-requests, with the sweep policy on.
    """
    rng = random.Random(seed)
    cfg = EngineConfig(
        reward_rate={"G": Fraction(5, 100), "D": Fraction(3, 100),
                     "O": Fraction(1, 100)},
        monthly_cap={"G": 40_00, "D": 15_00},
        variant=variant,
    )
    events = []
    for i in range(purchases):
        day = rng.randrange(days)
        tid = f"t{i:03d}"
        amount = rng.randint(5, 400) * 100
        events.append(ScenarioEvent(day=day, kind="purchase", txn_id=tid,
                                    amount_minor=amount,
                                    category=rng.choice("GDO")))
        remaining = amount
        roll = rng.random()
        if roll < 0.5:
            for _ in range(rng.randint(1, 2)):
                x = rng.randint(1, remaining - 1) if rng.random() < 0.8 else remaining
                events.append(ScenarioEvent(day=day + rng.randint(0, 45),
                                            kind="refund", txn_id=tid,
                                            amount_minor=x))
                remaining -= x
                if remaining < 2:
                    break
        if remaining > 0 and (roll < 0.15 or roll > 0.9):
            close = (day // 30 + 1) * 30
            events.append(ScenarioEvent(day=close + 46 + rng.randint(0, 30),
                                        kind="chargeback", txn_id=tid))
    for _ in range(purchases // 8):
        events.append(ScenarioEvent(day=rng.randrange(days), kind="redeem-request",
                                    amount_minor=rng.randint(1, 20) * 100))
    return Scenario(label="heavy", config=cfg, events=events, auto_redeem=True)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "name", ["walkthrough", "ddra_A", "ddra_F", "ddra_defensive_cycle",
                 "cross_cycle_B", "empty"],
    )
    def test_fixtures(self, fixtures_dir, name):
        sc = Scenario.load(fixtures_dir / f"{name}.json")
        assert_same(run(sc, daily_snapshots=False).log, sc.config)

    def test_acceptance_sweep(self):
        rng = random.Random(20260824)
        for i in range(500):
            variant = ("defensive-instant", "defensive-cycle")[i % 2]
            sc, _ = _random_scenario(rng, variant)
            assert_same(run(sc, daily_snapshots=False).log, sc.config)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_cross_cycle_heavy_account(self, variant):
        sc = heavy_scenario(variant, seed=7)
        report = run(sc)
        assert len(report.log) > 100
        assert any(ev.kind == "chargeback-posted" for ev in report.log)
        assert_same(report.log, sc.config, deltas=(0, 30))
        assert report.snapshots == ref.integrity_series(report.log, sc.config)


ALL_KINDS_FOR_TXN = ["refund-posted", "chargeback-posted", "settle",
                     "reconcile-settle", "refund", "chargeback",
                     "reconcile-clawback"]
NEGATIVE_KINDS = {"refund-posted", "chargeback-posted", "refund", "chargeback",
                  "reconcile-clawback"}


@st.composite
def logs_and_configs(draw):
    """Hand-built logs: several reversals per txn, grants and claws of any
    size, redeems, and (sometimes) days out of log order.

    Each transaction's purchase comes first in log order and is dated no
    later than its other events, the one ordering rule a log must keep.
    """
    rates = {c: Fraction(draw(st.sampled_from([0, 1, 2, 5, 7, 33])), 100)
             for c in "ABC"}
    caps = {c: draw(st.integers(0, 3000)) for c in "AB" if draw(st.booleans())}
    config = EngineConfig(reward_rate=rates, monthly_cap=caps)
    entries = []
    purchases = {}
    for i in range(draw(st.integers(1, 5))):
        tid = f"t{i}"
        amount = draw(st.integers(1, 20_000))
        day = draw(st.integers(0, 90))
        category = draw(st.sampled_from("ABC"))
        purchases[tid] = (day, "purchase", tid, amount, category, day // 30)
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(ALL_KINDS_FOR_TXN))
            size = amount if kind.endswith("-posted") else max(amount // 10, 1)
            x = draw(st.integers(1, size))
            entries.append((day + draw(st.integers(0, 60)), kind, tid,
                            -x if kind in NEGATIVE_KINDS else x,
                            category, day // 30))
    for _ in range(draw(st.integers(0, 3))):
        day = draw(st.integers(0, 150))
        kind = draw(st.sampled_from(["redeem", "redeem-request", "hold-set"]))
        entries.append((day, kind, "", -draw(st.integers(0, 500)), "", day // 30))
    entries = draw(st.permutations(entries))
    if draw(st.booleans()):
        entries = sorted(entries, key=lambda e: e[0])
    log = EventLog()
    emitted = set()
    # a few purchases up front, so some stand alone with no later events
    for tid in draw(st.permutations(sorted(purchases)))[:draw(st.integers(0, 2))]:
        emitted.add(tid)
        _emit(log, purchases[tid])
    for entry in entries:
        tid = entry[2]
        if tid and tid not in emitted:
            emitted.add(tid)
            _emit(log, purchases[tid])
        _emit(log, entry)
    return log, config


def _emit(log, entry):
    day, kind, tid, amount, category, period = entry
    log.emit(day=day, kind=kind, txn_id=tid, user="u1", amount_minor=amount,
             category=category, period=period)


class TestHypothesis:
    @settings(max_examples=300, deadline=None)
    @given(logs_and_configs())
    def test_arbitrary_logs(self, log_and_config):
        log, config = log_and_config
        assert_same(log, config)


class RescanLags(AttackOutcome):
    """An attack outcome whose lags come from the reference rescan."""

    def restore_lags(self) -> list:
        return ref.refund_clawback_lags(self.report)


def longest_float(lags) -> int:
    """All that ``classify`` and ``attack`` read of a lag list: the longest
    positive lag, 0 when there is none."""
    return max((lag for lag in lags if lag is not None and lag > 0), default=0)


def assert_lags_read_alike(outcomes):
    rescans = [RescanLags(**vars(o)) for o in outcomes]
    variant = VARIANTS[outcomes[0].variant]
    assert classify(variant, outcomes) == classify(variant, rescans)
    # ``attack`` refunds in full, and prints the longest lag
    for o, rescan in zip(outcomes, rescans):
        if o.refund_fraction == 1:
            assert (longest_float(o.restore_lags())
                    == longest_float(rescan.restore_lags()))


# run_battery's four runs, at any purchase
BATTERY = [(SAME_CYCLE, Fraction(1)), (CROSS_CYCLE, Fraction(1)),
           (CROSS_CYCLE, Fraction(1, 2)), (CONTROL, Fraction(1))]


class TestClawbackLags:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_battery_lags_match_the_rescan(self, variant):
        assert_lags_read_alike(run_battery(variant))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(VARIANTS)), st.integers(1, 10**7),
           st.integers(1, 36))
    def test_any_purchase_and_cycles_match_the_rescan(self, variant, purchase,
                                                      cycles):
        # a purchase of 1 minor unit has no half to refund
        assert_lags_read_alike([
            run_ddra(variant, timing=timing, purchase_minor=purchase,
                     cycles=cycles, refund_fraction=fraction)
            for timing, fraction in BATTERY if fraction * purchase >= 1
        ])

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_heavy_account_lags_match_the_rescan(self, variant):
        # partial refunds and chargebacks, where the two lag definitions
        # part: restore lags are the reference RRC checker's
        report = run(heavy_scenario(variant, seed=11), daily_snapshots=False)
        outcome = replace(run_ddra(variant, cycles=1), report=report)
        assert outcome.restore_lags() == [
            None if v.restored_day is None else v.restored_day - v.refund_day
            for v in ref.check_rrc(report.log, 0, report.config)
        ]


class TestLocatedErrors:
    def purchase_log(self):
        log = EventLog()
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=10000, category="G", period=0)
        return log

    @pytest.mark.parametrize("kind", ["refund-posted", "settle", "reconcile-clawback"])
    def test_event_without_purchase_names_seq_and_txn(self, kind):
        log = self.purchase_log()
        log.emit(day=2, kind=kind, txn_id="zz", user="u1", amount_minor=-100,
                 category="G", period=0)
        self.assert_every_check_raises(log, f"seq 2: {kind} for transaction 'zz'")

    def test_duplicate_purchase_is_rejected(self):
        log = self.purchase_log()
        log.emit(day=3, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=500, category="G", period=0)
        self.assert_every_check_raises(
            log, "seq 2: duplicate purchase of transaction 't1'")

    @staticmethod
    def assert_every_check_raises(log, message):
        # the fold-based checkers and the lean one-pass bounds alike
        config = EngineConfig(reward_rate={"G": Fraction(5, 100)})
        for check in (lambda: integrity_series(log, config),
                      lambda: check_rrc(log, 0, config),
                      lambda: oracle_bound(log, config),
                      lambda: entitlement_bound(log, config)):
            with pytest.raises(LogInvalid, match=message):
                check()
