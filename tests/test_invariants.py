import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

import reference_invariants as ref
from rewardsim import invariants
from rewardsim import (
    EngineConfig,
    EventLog,
    Scenario,
    ScenarioEvent,
    check_rrc,
    integrity_series,
    net_reward_from_log,
    net_spend,
    oracle_bound,
    run,
)
from rewardsim.cli import main
from test_invariants_fold import logs_and_configs


def simple_log():
    log = EventLog()
    log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
             amount_minor=10000, category="GROCERY", period=0)
    log.emit(day=0, kind="settle", txn_id="t1", user="u1",
             amount_minor=500, category="GROCERY", period=0)
    return log


class TestAggregates:
    def test_net_spend_tracks_principal_only(self):
        log = simple_log()
        assert net_spend(log) == 10000
        log.emit(day=3, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-4000, category="GROCERY", period=0)
        assert net_spend(log) == 6000
        assert net_spend([ev for ev in log if ev.day <= 0]) == 10000

    def test_net_reward_ignores_redemptions(self):
        log = simple_log()
        log.emit(day=1, kind="redeem", txn_id="", user="u1",
                 amount_minor=-500, category="", period=0)
        assert net_reward_from_log(log) == 500

    def test_clawback_reduces_net_reward(self):
        log = simple_log()
        log.emit(day=3, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-10000, category="GROCERY", period=0)
        log.emit(day=3, kind="refund", txn_id="t1", user="u1",
                 amount_minor=-500, category="GROCERY", period=0)
        assert net_reward_from_log(log) == 0


class TestEntitlementBound:
    def config(self):
        return EngineConfig(
            reward_rate={"GROCERY": Fraction(5, 100)},
            monthly_cap={"GROCERY": 5000},
        )

    def test_cap_limits_bucket(self):
        log = EventLog()
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=200000, category="GROCERY", period=0)
        assert integrity_series(log, self.config())[-1].bound == 5000

    def test_refund_shrinks_original_bucket(self):
        log = EventLog()
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=10000, category="GROCERY", period=0)
        # refund posts in period 1 but counts against period 0's bucket
        log.emit(day=35, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-10000, category="GROCERY", period=0)
        assert integrity_series(log, self.config())[-1].bound == 0

    def test_negative_bucket_floors_at_zero(self):
        log = EventLog()
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=10000, category="GROCERY", period=0)
        log.emit(day=1, kind="purchase", txn_id="t2", user="u1",
                 amount_minor=5000, category="FUEL", period=0)
        log.emit(day=3, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-10000, category="GROCERY", period=0)
        cfg = EngineConfig(
            reward_rate={"GROCERY": Fraction(5, 100), "FUEL": Fraction(2, 100)}
        )
        # the refunded grocery bucket cannot subsidize the fuel bucket
        assert integrity_series(log, cfg)[-1].bound == 100

    def test_integrity_check_flags_excess(self):
        log = simple_log()
        log.emit(day=3, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-10000, category="GROCERY", period=0)
        # no clawback ever posts: the 5.00 is now unbacked
        snap = integrity_series(log, self.config())[-1]
        assert not snap.ok
        assert snap.net_reward == 500
        assert snap.bound == 0

    def test_series_covers_every_event_day(self):
        log = simple_log()
        log.emit(day=7, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-2000, category="GROCERY", period=0)
        days = [s.day for s in integrity_series(log, self.config())]
        assert days == [0, 7]


class TestOracleBound:
    def test_ceiling_per_transaction(self):
        log = EventLog()
        cfg = EngineConfig(reward_rate={"X": Fraction(5, 100)})
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=99, category="X", period=0)
        log.emit(day=0, kind="purchase", txn_id="t2", user="u1",
                 amount_minor=99, category="X", period=0)
        assert oracle_bound(log, cfg) == 10  # ceil(4.95) per transaction

    def test_refunds_shrink_the_bound(self):
        log = EventLog()
        cfg = EngineConfig(reward_rate={"X": Fraction(5, 100)})
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=10000, category="X", period=0)
        log.emit(day=2, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-6000, category="X", period=0)
        assert oracle_bound(log, cfg) == 200


class TestRrc:
    def scenario(self, variant):
        cfg = EngineConfig(
            reward_rate={"GROCERY": Fraction(5, 100)}, variant=variant
        )
        return Scenario(
            label="rrc",
            config=cfg,
            events=[
                ScenarioEvent(day=1, kind="purchase", txn_id="t1",
                              amount_minor=10000, category="GROCERY"),
                ScenarioEvent(day=5, kind="refund", txn_id="t1", amount_minor=10000),
            ],
        )

    def test_immediate_variant_restores_same_day(self):
        report = run(self.scenario("defensive-instant"))
        verdicts = check_rrc(report.log, 0, report.config)
        assert [(v.refund_day, v.restored_day) for v in verdicts] == [(5, 5)]
        assert all(v.ok for v in verdicts)

    def test_deferred_variant_restores_at_close(self):
        report = run(self.scenario("F"))
        verdicts = check_rrc(report.log, 30, report.config)
        assert [(v.refund_day, v.restored_day) for v in verdicts] == [(5, 30)]
        assert all(v.ok for v in verdicts)
        assert not all(v.ok for v in check_rrc(report.log, 10, report.config))

    def test_no_adjustment_never_restores(self):
        report = run(self.scenario("A"))
        verdicts = check_rrc(report.log, 10**6, report.config)
        assert [v.restored_day for v in verdicts] == [None]
        assert not any(v.ok for v in verdicts)

    def test_refund_before_settlement_restores_instantly(self):
        report = run(self.scenario("defensive-cycle"))
        # refund nets out pre-settlement: nothing was ever granted
        verdicts = check_rrc(report.log, 0, report.config)
        assert all(v.ok for v in verdicts)

    def test_empty_log_has_no_verdicts(self):
        assert check_rrc(EventLog(), 0, EngineConfig()) == []


def assert_one_day_checks_match(log, config):
    days = sorted({ev.day for ev in log})
    for day in [-1, *days, days[-1] + 1 if days else 0]:
        prefix = [ev for ev in log if ev.day <= day]
        expected = ref.check_integrity(log, config, day)
        series = integrity_series(prefix, config)
        if prefix:
            # the prefix's last snapshot holds from its own day through day
            last_day = max(ev.day for ev in prefix)
            assert series[-1] == expected._replace(day=last_day)
        else:
            assert series == [] and expected == (day, 0, 0, True)
        assert oracle_bound(prefix, config) == ref.oracle_bound(log, config, day)
        assert net_spend(prefix) == ref.net_spend(log, day)
        assert net_reward_from_log(prefix) == ref.net_reward_from_log(log, day)


class TestOneDayChecksAgainstReference:
    # the package answers for the log it is given: on the prefix dated up
    # to each day it must agree with the reference's as-of-day rescans
    @pytest.mark.parametrize(
        "name", ["walkthrough", "ddra_A", "ddra_F", "ddra_defensive_cycle",
                 "cross_cycle_B", "empty", "close_refunds_cycle",
                 "delayed_refund_instant", "rrc_blame_cycle", "rrc_blame_F"],
    )
    def test_fixtures(self, fixtures_dir, name):
        sc = Scenario.load(fixtures_dir / f"{name}.json")
        assert_one_day_checks_match(run(sc, daily_snapshots=False).log, sc.config)

    @settings(max_examples=150, deadline=None)
    @given(logs_and_configs())
    def test_arbitrary_logs(self, log_and_config):
        assert_one_day_checks_match(*log_and_config)


class TestOnePass:
    # each checker reads the log once, counted at EventLog.__iter__ as the
    # benchmark's tracer counts invariants.log_passes
    @pytest.fixture
    def passes(self, monkeypatch):
        counted = []
        raw_iter = EventLog.__iter__

        def iter_counted(log):
            counted.append(log)
            return raw_iter(log)

        monkeypatch.setattr(EventLog, "__iter__", iter_counted)
        return counted

    @pytest.fixture
    def walkthrough(self, fixtures_dir):
        return (EventLog.read_jsonl(fixtures_dir / "walkthrough.jsonl"),
                Scenario.load(fixtures_dir / "walkthrough.json").config)

    @pytest.mark.parametrize("check", [
        lambda log, config: integrity_series(log, config),
        lambda log, config: check_rrc(log, 3, config),
        lambda log, config: oracle_bound(log, config),
        lambda log, config: net_spend(log),
        lambda log, config: net_reward_from_log(log),
    ], ids=["integrity_series", "check_rrc", "oracle_bound", "net_spend",
            "net_reward_from_log"])
    def test_each_checker_reads_the_log_once(self, walkthrough, passes, check):
        log, config = walkthrough
        check(log, config)
        assert passes == [log]

    def test_check_command_reads_the_log_once_per_checker(
            self, fixtures_dir, tmp_path, passes, capsys):
        # integrity_series and check_rrc each make their own pass
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            Scenario.load(fixtures_dir / "walkthrough.json").config.to_json_dict()))
        main(["check", "--log", str(fixtures_dir / "walkthrough.jsonl"),
              "--config", str(cfg_path)])
        assert "invariants hold" in capsys.readouterr().out
        assert len(passes) == 2


def heavy_log():
    """Eight months of purchases in four categories, one of them rated by
    the ``*`` fallback, with partial refunds and a chargeback."""
    cfg = EngineConfig(
        reward_rate={"GROCERY": Fraction(5, 100), "FUEL": Fraction(3, 100),
                     "TRAVEL": Fraction(1, 3), "*": Fraction(1, 100)},
        monthly_cap={"GROCERY": 2000}, variant="defensive-cycle")
    events = []
    for k in range(48):
        txn_id, day = f"t{k:02d}", 1 + 5 * k
        category = ("GROCERY", "FUEL", "TRAVEL", "BOOKS")[k % 4]
        events.append(ScenarioEvent(day=day, kind="purchase", txn_id=txn_id,
                                    amount_minor=1000 + 37 * k, category=category))
        if k % 3 == 0:
            events.append(ScenarioEvent(day=day + 4, kind="refund", txn_id=txn_id,
                                        amount_minor=500))
    events.append(ScenarioEvent(day=250, kind="chargeback", txn_id="t01",
                                amount_minor=1037))
    return run(Scenario(label="heavy", config=cfg, events=events),
               daily_snapshots=False).log, cfg


class TestRateTermsPerPass:
    # each pass takes a category's integer rate terms once, however many
    # purchases, buckets or periods it has
    @pytest.fixture
    def taken(self, monkeypatch):
        counted = []
        raw_terms = invariants.ceil_terms

        def terms_counted(rate):
            counted.append(rate)
            return raw_terms(rate)

        monkeypatch.setattr(invariants, "ceil_terms", terms_counted)
        return counted

    CHECKS = [
        lambda log, config: integrity_series(log, config),
        lambda log, config: check_rrc(log, 3, config),
        lambda log, config: oracle_bound(log, config),
    ]
    IDS = ["integrity_series", "check_rrc", "oracle_bound"]

    @pytest.mark.parametrize("check", CHECKS, ids=IDS)
    def test_walkthrough(self, fixtures_dir, taken, check):
        log = EventLog.read_jsonl(fixtures_dir / "walkthrough.jsonl")
        check(log, Scenario.load(fixtures_dir / "walkthrough.json").config)
        assert taken == [Fraction(5, 100)]

    @pytest.mark.parametrize("check", CHECKS, ids=IDS)
    def test_heavy_log(self, taken, check):
        log, config = heavy_log()
        purchases = [ev for ev in log if ev.kind == "purchase"]
        assert len(purchases) == 48 and len({ev.period for ev in purchases}) > 4
        check(log, config)
        # in order of each category's first purchase
        assert taken == [Fraction(5, 100), Fraction(3, 100), Fraction(1, 3),
                         Fraction(1, 100)]

    @pytest.mark.parametrize("check", CHECKS, ids=IDS)
    def test_a_second_pass_takes_its_own_terms(self, taken, check):
        log, config = heavy_log()
        check(log, config)
        config.reward_rate["TRAVEL"] = Fraction(1, 4)
        check(log, config)
        assert taken[4:] == [Fraction(5, 100), Fraction(3, 100), Fraction(1, 4),
                             Fraction(1, 100)]

    @pytest.mark.parametrize("check", CHECKS, ids=IDS)
    def test_a_negative_rate_is_refused_at_its_purchase(self, check):
        # oracle_bound used to meet the orphan settle first, since it read
        # the rate's sign only after its pass
        config = EngineConfig(reward_rate={"GROCERY": Fraction(5, 100)})
        config.reward_rate["GROCERY"] = Fraction(-1, 20)
        log = EventLog()
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=10000, category="GROCERY", period=0)
        log.emit(day=1, kind="settle", txn_id="zz", user="u1",
                 amount_minor=500, category="GROCERY", period=0)
        with pytest.raises(ValueError) as exc:
            check(log, config)
        assert str(exc.value) == "rate must be non-negative, got -1/20"
