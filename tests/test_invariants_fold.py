"""Differential tests: the streaming passes against the rescanning reference.

``integrity_series`` and ``check_rrc`` each answer every "as of day d"
question from one pass over the log; ``reference_invariants`` rebuilds
the log state for each day instead.  Both must return equal records
on engine logs of every variant and on arbitrary hand-built logs.

``check_rrc`` gives each reversal the verdict its own transaction's
events give alone, and wherever reward integrity holds the net reward
fits the sum of per-transaction ceilings, so RRC needs no aggregate
clause of its own.

The attack battery's lags are RRC restore lags; wherever ``classify``
and ``attack`` read them, they must agree with the reference rescan of
days from each refund to its transaction's next clawback.
"""

import random
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
    integrity_series,
    net_reward_from_log,
    oracle_bound,
    rate_ceil,
    run,
    run_battery,
    run_ddra,
)
from rewardsim.adversary import BATTERY, AttackOutcome
from rewardsim.cli import main
from rewardsim.harness import default_consistency_window
from rewardsim.issuers import VARIANTS, classify
from conftest import FIXTURES
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
                 "cross_cycle_B", "empty", "rrc_blame_cycle", "rrc_blame_F"],
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


# hundredths, and rates whose ceilings need more than hundredths: thirds,
# sevenths and the whole purchase
RATES = [*(Fraction(n, 100) for n in (0, 1, 2, 5, 7, 33)),
         Fraction(1, 3), Fraction(2, 7), Fraction(1)]


@st.composite
def logs_and_configs(draw):
    """Hand-built logs: several reversals per txn, grants and claws of any
    size, purchases of no or negative amount, redeems, and (sometimes)
    days out of log order.

    A transaction's reversals, grants and claws carry a category and
    period drawn apart from its purchase's, so a checker that reads them
    off any event but the purchase disagrees with the reference.  Each
    transaction's purchase comes first in log order and is dated no later
    than its other events, the one ordering rule a log must keep.
    """
    rates = {c: draw(st.sampled_from(RATES)) for c in "ABC"}
    caps = {c: draw(st.integers(0, 3000)) for c in "AB" if draw(st.booleans())}
    config = EngineConfig(reward_rate=rates, monthly_cap=caps)
    entries = []
    purchases = {}
    for i in range(draw(st.integers(1, 5))):
        tid = f"t{i}"
        amount = draw(st.integers(-500, 20_000))
        day = draw(st.integers(0, 90))
        category = draw(st.sampled_from("ABC"))
        purchases[tid] = (day, "purchase", tid, amount, category, day // 30)
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(ALL_KINDS_FOR_TXN))
            size = amount if kind.endswith("-posted") else amount // 10
            x = draw(st.integers(1, max(size, 1)))
            entries.append((day + draw(st.integers(0, 60)), kind, tid,
                            -x if kind in NEGATIVE_KINDS else x,
                            draw(st.sampled_from("ABC")), draw(st.integers(0, 5))))
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


def assert_rrc_is_local(log, config):
    """The verdicts on each transaction's reversals are the verdicts on a
    log of that transaction's events alone."""
    verdicts = check_rrc(log, 0, config)
    for txn_id in {v.txn_id for v in verdicts}:
        own = [ev for ev in log if ev.txn_id == txn_id]
        assert (check_rrc(own, 0, config)
                == [v for v in verdicts if v.txn_id == txn_id])


def assert_integrity_bounds_the_aggregate(log, config):
    """Wherever reward integrity holds, the net reward fits the sum of
    per-transaction ceilings.  So the aggregate clause that RRC no longer
    tests can fail only on a day that ``integrity_series`` reports."""
    for day in sorted({ev.day for ev in log}):
        prefix = [ev for ev in log if ev.day <= day]
        if integrity_series(prefix, config)[-1].ok:
            assert net_reward_from_log(prefix) <= oracle_bound(prefix, config)


# accounts where one transaction's refund posts after the statement close
# that claws back another's
WITNESSES = {"rrc_blame_cycle": {"t0": 60, "t1": 90},
             "rrc_blame_F": {"t00110": 330, "t00128": 360}}


def witness(name):
    return (EventLog.read_jsonl(FIXTURES / f"{name}.jsonl"),
            Scenario.load(FIXTURES / f"{name}.json").config)


class TestOwnTransaction:
    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_witness_logs(self, name):
        assert_rrc_is_local(*witness(name))
        assert_integrity_bounds_the_aggregate(*witness(name))

    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_witness_restored_by_its_own_clawback(self, capsys, name):
        # the aggregate clause held t0 open to day 90 and t00110 to day
        # 360, past the window, until the other refund's clawback posted
        log, config = witness(name)
        verdicts = check_rrc(log, default_consistency_window(config), config)
        assert {v.txn_id: v.restored_day for v in verdicts} == WITNESSES[name]
        assert all(v.ok for v in verdicts)
        code = main(["simulate", "--scenario", str(FIXTURES / f"{name}.json")])
        out = capsys.readouterr().out
        assert "CONSISTENCY VIOLATION" not in out
        # reward integrity still fails between the statement closes
        assert "INTEGRITY VIOLATION" in out and code == 2

    @settings(max_examples=300, deadline=None)
    @given(logs_and_configs())
    def test_arbitrary_logs(self, log_and_config):
        assert_rrc_is_local(*log_and_config)
        assert_integrity_bounds_the_aggregate(*log_and_config)


class RescanLags(AttackOutcome):
    """An attack outcome whose lags come from the reference rescan."""

    def restore_lags(self) -> list:
        return ref.refund_clawback_lags(self.report)


def longest_float(lags) -> int:
    """All that ``classify`` and ``attack`` read of a lag list: the longest
    positive lag, 0 when there is none."""
    return max((lag for lag in lags if lag is not None and lag > 0), default=0)


def assert_lags_read_alike(outcomes):
    rescans = [RescanLags._make(o) for o in outcomes]
    variant = VARIANTS[outcomes[0].variant]
    assert classify(variant, outcomes) == classify(variant, rescans)
    # ``attack`` refunds in full, and prints the longest lag
    for o, rescan in zip(outcomes, rescans):
        if o.refund_fraction == 1:
            assert (longest_float(o.restore_lags())
                    == longest_float(rescan.restore_lags()))


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
        outcome = run_ddra(variant, cycles=1)._replace(report=report)
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

    def test_negative_rate_is_refused_as_rate_ceil_refuses_it(self):
        # a rate mutated past the config's own check
        config = EngineConfig(reward_rate={"G": Fraction(5, 100)})
        config.reward_rate["G"] = Fraction(-1, 20)
        with pytest.raises(ValueError) as expected:
            rate_ceil(Fraction(-1, 20), 10000)
        for check in (lambda: integrity_series(self.purchase_log(), config),
                      lambda: check_rrc(self.purchase_log(), 0, config),
                      lambda: oracle_bound(self.purchase_log(), config)):
            with pytest.raises(ValueError) as got:
                check()
            assert str(got.value) == str(expected.value)

    @staticmethod
    def assert_every_check_raises(log, message):
        # the checkers' passes and the lean oracle pass alike
        config = EngineConfig(reward_rate={"G": Fraction(5, 100)})
        for check in (lambda: integrity_series(log, config),
                      lambda: check_rrc(log, 0, config),
                      lambda: oracle_bound(log, config)):
            with pytest.raises(LogInvalid, match=message):
                check()
