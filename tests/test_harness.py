import gc
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardsim import (
    EngineConfig,
    EventLog,
    Scenario,
    ScenarioEvent,
    ScenarioInvalid,
    format_millions,
    leakage_estimate,
    replay,
    run,
    scenario_from_log,
)
from rewardsim import engine
from rewardsim.issuers import VARIANTS


def config(variant="defensive-instant", **kw):
    defaults = dict(
        reward_rate={"GROCERY": Fraction(5, 100)},
        monthly_cap={"GROCERY": 5000},
        variant=variant,
    )
    defaults.update(kw)
    return EngineConfig(**defaults)


def scenario(events, variant="defensive-instant", auto_redeem=False, **kw):
    return Scenario(
        label="t", config=config(variant, **kw), events=events,
        auto_redeem=auto_redeem,
    )


def ev(day, kind, txn_id="", amount=0, category="GROCERY"):
    return ScenarioEvent(day=day, kind=kind, txn_id=txn_id,
                         amount_minor=amount, category=category)


class TestRun:
    def test_empty_scenario_produces_empty_log(self):
        report = run(scenario([]))
        assert len(report.log) == 0
        assert report.net_reward == 0

    def test_instant_settlement_same_day(self):
        report = run(scenario([ev(3, "purchase", "t1", 10000)]))
        kinds = [(e.day, e.kind) for e in report.log]
        assert kinds == [(3, "purchase"), (3, "settle")]
        assert report.ledger.balance == 500

    def test_cycle_variant_settles_at_close(self):
        report = run(scenario([ev(3, "purchase", "t1", 10000)],
                              variant="defensive-cycle"))
        settles = [e for e in report.log if e.kind == "reconcile-settle"]
        assert [(e.day, e.amount_minor) for e in settles] == [(30, 500)]

    def test_close_runs_before_same_day_events(self):
        report = run(scenario(
            [ev(5, "purchase", "t1", 10000), ev(30, "purchase", "t2", 10000)],
            variant="defensive-cycle",
        ))
        day30 = [e.kind for e in report.log if e.day == 30]
        assert day30.index("reconcile-settle") < day30.index("purchase")

    def test_delayed_delivery_settles_later(self):
        report = run(scenario([ev(3, "purchase", "t1", 10000)],
                              delivery_delay_days=2))
        settle = next(e for e in report.log if e.kind == "settle")
        assert settle.day == 5

    def test_refund_before_delayed_settlement_nets_out(self):
        report = run(scenario(
            [ev(3, "purchase", "t1", 10000), ev(4, "refund", "t1", 10000)],
            delivery_delay_days=3,
        ))
        assert not any(e.kind == "settle" for e in report.log)
        assert report.net_reward == 0

    def test_sweep_policy_logs_request_then_redeem(self):
        report = run(scenario([ev(1, "purchase", "t1", 10000)], auto_redeem=True))
        kinds = [e.kind for e in report.log]
        assert kinds == ["purchase", "settle", "redeem-request", "redeem"]
        assert report.ledger.redeemed_total == 500

    def test_sweep_redemption_evaluates_the_gate_twice(self, monkeypatch):
        # once in the sweep and once in engine.redeem's own check; the
        # sweep posts its request without asking the gate a third time
        calls = []
        gate = engine.can_redeem

        def counting(*args):
            calls.append(args[2])
            return gate(*args)

        monkeypatch.setattr(engine, "can_redeem", counting)
        report = run(scenario([ev(1, "purchase", "t1", 10000)], auto_redeem=True))
        assert [e.kind for e in report.log if e.kind.startswith("redeem")] == [
            "redeem-request", "redeem"]
        assert calls == [1, 1]

    def test_denied_request_logs_request_only(self):
        report = run(scenario([ev(1, "purchase", "t1", 10000),
                               ev(2, "redeem-request", amount=600)]))
        kinds = [e.kind for e in report.log]
        assert kinds.count("redeem-request") == 1
        assert kinds.count("redeem") == 0

    def test_grace_hold_defers_sweep(self):
        report = run(scenario([ev(35, "purchase", "t1", 10000)],
                              variant="defensive-cycle", auto_redeem=True))
        redeem = next(e for e in report.log if e.kind == "redeem")
        # settled at close day 60, held until day 67
        assert redeem.day == 67

    def test_chargeback_reverses_reward(self):
        report = run(scenario([ev(1, "purchase", "t1", 10000),
                               ev(5, "chargeback", "t1")]))
        assert report.net_reward == 0
        assert any(e.kind == "chargeback" for e in report.log)

    @pytest.mark.parametrize("variant", ["D", "F", "defensive-cycle"])
    def test_chargeback_after_deferred_refund_reverses_the_rest(self, variant):
        # the day-35 refund waits for the day-60 close; the chargeback
        # between them may reverse only the 6000 not yet refunded
        report = run(scenario([ev(1, "purchase", "t1", 10000),
                               ev(35, "refund", "t1", 4000),
                               ev(40, "chargeback", "t1")], variant=variant))
        posted = [e.amount_minor for e in report.log if e.kind == "chargeback-posted"]
        assert posted == [-6000]
        assert report.net_spend == 0
        assert report.net_reward == 0

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_chargeback_after_partial_refund_is_accepted(self, variant):
        # immediate and no-clawback variants have moved t1 to PART_REF by
        # day 40, statement-close ones still hold it SETTLED
        report = run(scenario([ev(1, "purchase", "t1", 10000),
                               ev(35, "refund", "t1", 4000),
                               ev(40, "chargeback", "t1")], variant=variant))
        posted = [e.amount_minor for e in report.log if e.kind == "chargeback-posted"]
        assert posted == [-6000]
        assert report.net_spend == 0

    def test_hold_set_names_the_scenario_user(self):
        # the first close comes before any purchase exists
        sc = scenario([ev(1, "redeem-request", amount=100),
                       ev(40, "purchase", "t1", 10000)], variant="defensive-cycle")
        sc.user = "alice"
        holds = [e for e in run(sc).log if e.kind == "hold-set"]
        assert holds and all(e.user == "alice" for e in holds)

    @pytest.mark.parametrize("variant", ["A", "C", "defensive-instant"])
    def test_delivery_delay_past_a_close_settles_at_the_close(self, variant):
        # decided rule: the day-30 close settles every PENDING purchase of
        # period 0, so a 40-day delay does not reach its day-42 due date
        report = run(scenario([ev(2, "purchase", "t1", 10000)], variant=variant,
                              delivery_delay_days=40))
        assert [(e.day, e.kind, e.amount_minor) for e in report.log] == [
            (2, "purchase", 10000), (30, "reconcile-settle", 500),
        ]
        assert report.integrity_ok

    @pytest.mark.parametrize("snapshots", [True, False])
    def test_integrity_ok_reads_the_log_without_snapshots(self, fixtures_dir,
                                                          snapshots):
        # ddra_A's net reward exceeds its bound; a run that takes no daily
        # snapshots must still say so
        sc = Scenario.load(fixtures_dir / "ddra_A.json")
        assert not run(sc, daily_snapshots=snapshots).integrity_ok
        assert run(scenario([]), daily_snapshots=snapshots).integrity_ok


class TestPayoutAboveTheFloor:
    @pytest.mark.parametrize("variant,sweep", [("C", True), ("B", False)],
                             ids=["sweep", "close-payout"])
    def test_pays_out_the_balance_above_b_min(self, variant, sweep):
        # both used to ask for the whole balance, which the b_min gate
        # always refuses: each redeemed $0.00 and kept $50.00
        sc = scenario([ev(1, "purchase", "t1", 100_000)], variant=variant,
                      auto_redeem=sweep, b_min=100)
        report = run(sc)
        assert (report.ledger.redeemed_total, report.ledger.balance) == (4900, 100)
        assert [e.amount_minor for e in report.log if e.kind == "redeem"] == [-4900]
        TestReplay().replay_round_trip(sc)


class TestPeriodIndex:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_indexed_close_equals_the_filtered_one(self, variant, monkeypatch):
        # each close receives exactly the transactions whose purchase
        # events name its period, in purchase order
        reconcile = engine.statement_cycle_reconcile
        seen = []

        def checked(ledger, records, period_txns, refunded, late, period,
                    config, log, *args, **kw):
            expected = [(e.txn_id, e.amount_minor) for e in log
                        if e.kind == "purchase" and e.period == period]
            assert [(t.id, t.amount) for t in period_txns] == expected
            assert all(t.period == period for t in period_txns)
            seen.append(len(expected))
            return reconcile(ledger, records, period_txns, refunded, late,
                             period, config, log, *args, **kw)

        monkeypatch.setattr(engine, "statement_cycle_reconcile", checked)
        events = [ev(d, "purchase", f"t{d}", 1000 + d) for d in range(0, 200, 7)]
        events += [ev(d + 3, "refund", f"t{d}", 500) for d in range(0, 200, 21)]
        run(scenario(events, variant=variant, delivery_delay_days=9))
        assert sum(seen) == len(range(0, 200, 7))


class TestCloseVisits:
    @pytest.mark.parametrize("delay", [0, 9])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_closes_run_only_where_work_can_wait_for_them(self, variant, delay,
                                                          monkeypatch):
        # a close is visited under a variant that defers work to it, or
        # when a delivery delay can leave a settlement pending at one
        calls = []
        reconcile = engine.statement_cycle_reconcile

        def counted(*args, **kw):
            calls.append(args[5])  # the period closed
            return reconcile(*args, **kw)

        monkeypatch.setattr(engine, "statement_cycle_reconcile", counted)
        events = [ev(d, "purchase", f"t{d}", 1000 + d) for d in range(0, 100, 11)]
        events += [ev(d + 15, "refund", f"t{d}", 500) for d in range(0, 100, 33)]
        report = run(scenario(events, variant=variant, auto_redeem=True,
                              delivery_delay_days=delay))
        skips = not VARIANTS[variant].defers_to_close and delay == 0
        assert (calls == []) == skips
        if not skips:
            assert calls == list(range(report.final_day // 30))
        # only a grace hold sets the hold, visited closes or not
        if not VARIANTS[variant].uses_grace_hold:
            assert report.ledger.redemption_hold_until is None


class TestValidation:
    @pytest.mark.parametrize(
        "events",
        [
            [ev(1, "refund", "nope", 100)],
            [ev(1, "purchase", "t1", 0)],
            [ev(1, "purchase", "t1", 100), ev(2, "refund", "t1", 200)],
            [ev(1, "purchase", "t1", 100), ev(1, "purchase", "t1", 100)],
            [ev(1, "purchase", "t1", 100), ev(2, "chargeback", "nope")],
            [ev(1, "redeem-request", amount=0)],
            [ev(-1, "purchase", "t1", 100)],
            [ev(1, "teleport", "t1", 100)],
        ],
    )
    def test_invalid_scenarios_rejected(self, events):
        with pytest.raises(ScenarioInvalid):
            run(scenario(events))

    def test_over_refund_across_deferred_refunds(self):
        events = [
            ev(1, "purchase", "t1", 10000),
            ev(2, "refund", "t1", 6000),
            ev(3, "refund", "t1", 6000),
        ]
        with pytest.raises(ScenarioInvalid):
            run(scenario(events, variant="F"))


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        sc = scenario([ev(1, "purchase", "t1", 10000)], auto_redeem=True)
        path = tmp_path / "sc.json"
        sc.save(path)
        again = Scenario.load(path)
        assert again == sc

    def test_schema_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "label": "x"}))
        with pytest.raises(ScenarioInvalid):
            Scenario.load(path)

    @pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "1.0"])
    def test_schema_must_be_the_integer_one(self, schema):
        # both equal 1, and used to run
        raw = {"schema": schema, "label": "x", "config": {}}
        with pytest.raises(ScenarioInvalid,
                           match=f"^unsupported scenario schema: {schema!r}$"):
            Scenario.from_json_dict(raw)

    @pytest.mark.parametrize("value", [1.5, 1000.5, True, "5"],
                             ids=["1.5", "1000.5", "true", "string"])
    @pytest.mark.parametrize("field", ["day", "amount_minor"])
    def test_non_integer_day_or_amount_rejected(self, field, value):
        raw = scenario([ev(1, "purchase", "t1", 10000),
                        ev(3, "refund", "t1", 1000)]).to_json_dict()
        raw["events"][1][field] = value
        with pytest.raises(ScenarioInvalid) as exc:
            run(Scenario.from_json_dict(raw))
        assert str(exc.value) == (
            f"event 1: {field} must be an integer, got {value!r}"
        )

    @pytest.mark.parametrize("field", ["kind", "txn_id", "category"])
    def test_non_string_text_field_rejected(self, field):
        raw = scenario([ev(1, "purchase", "t1", 10000)]).to_json_dict()
        raw["events"][0][field] = 7
        with pytest.raises(ScenarioInvalid, match=f"event 0: {field} must be a string"):
            run(Scenario.from_json_dict(raw))

    @pytest.mark.parametrize("field,value,message", [
        ("kind", "refnud", "event 1: unknown scenario event kind 'refnud'"),
        ("day", -3, "event 1: negative day -3"),
    ], ids=["unknown-kind", "negative-day"])
    def test_kind_and_day_refusals_name_the_event(self, field, value, message):
        raw = scenario([ev(1, "purchase", "t1", 10000),
                        ev(3, "refund", "t1", 1000)]).to_json_dict()
        raw["events"][1][field] = value
        with pytest.raises(ScenarioInvalid) as exc:
            run(Scenario.from_json_dict(raw))
        assert str(exc.value) == message

    def test_python_built_scenario_checked_too(self):
        # a float day used to log nothing and report integrity_ok
        with pytest.raises(ScenarioInvalid, match="event 0: day must be an integer"):
            run(scenario([ev(1.5, "purchase", "t1", 10000)]))

    @pytest.mark.parametrize("raw", [[], {"schema": 1, "label": "x", "config": {},
                                          "user": 1, "events": []}],
                             ids=["not-an-object", "int-user"])
    def test_malformed_scenario_rejected(self, raw):
        with pytest.raises(ScenarioInvalid):
            Scenario.from_json_dict(raw)

    @pytest.mark.parametrize("field,value,message", [
        ("label", 7, "label must be a string, got 7"),
        ("auto_redeem", "no", "auto_redeem must be true or false, got 'no'"),
        ("auto_redeem", 1, "auto_redeem must be true or false, got 1"),
    ], ids=["int-label", "text-auto-redeem", "int-auto-redeem"])
    def test_scenario_field_types_checked(self, field, value, message):
        # a text auto_redeem used to switch the sweep policy on
        raw = {"schema": 1, "label": "x", "config": {}, "events": [], field: value}
        with pytest.raises(ScenarioInvalid, match=f"^{message}$"):
            Scenario.from_json_dict(raw)

    @pytest.mark.parametrize("field,value,message", [
        ("auto_redeem", "no", "auto_redeem must be true or false, got 'no'"),
        ("user", None, "user must be a string, got None"),
        ("label", "t\ud800", "label is not valid UTF-8 text: 't\\ud800'"),
    ], ids=["text-auto-redeem", "null-user", "surrogate-label"])
    def test_python_built_scenario_fields_checked_as_in_a_file(self, field, value,
                                                               message):
        # a text auto_redeem used to turn the sweep on and redeem, and a
        # None user to fail only in write_jsonl with a TypeError
        raw = {"schema": 1, "label": "x", "config": {}, "events": [], field: value}
        with pytest.raises(ScenarioInvalid) as from_file:
            Scenario.from_json_dict(raw)
        kwargs = {"label": "x", "config": EngineConfig(), field: value}
        with pytest.raises(ScenarioInvalid) as built:
            Scenario(**kwargs)
        assert str(built.value) == str(from_file.value) == message

    def test_absent_optional_keys_take_the_defaults(self):
        raw = {"schema": 1, "label": "x", "config": {},
               "events": [{"day": 1, "kind": "purchase"}]}
        assert Scenario.from_json_dict(raw) == Scenario(
            label="x", config=EngineConfig(),
            events=[ScenarioEvent(day=1, kind="purchase")],
        )
        del raw["events"]
        assert Scenario.from_json_dict(raw).events == []

    def test_non_ascii_text_accepted(self, tmp_path):
        # the lone-surrogate check must not reject ordinary non-ASCII text,
        # and the log keeps it through a write, a read and a replay
        events = [ev(1, "purchase", "café", 10000, "café"),
                  ev(5, "refund", "café", 4000)]
        report = run(scenario(events, reward_rate={"café": Fraction(5, 100)},
                              monthly_cap={"café": 5000}))
        assert [(e.kind, e.txn_id, e.category) for e in report.log] == [
            ("purchase", "café", "café"), ("settle", "café", "café"),
            ("refund-posted", "café", "café"), ("refund", "café", "café"),
        ]
        path = tmp_path / "cafe.jsonl"
        report.log.write_jsonl(path)
        assert EventLog.read_jsonl(path).events == report.log.events
        again = tmp_path / "again.jsonl"
        replay(path, report.config).log.write_jsonl(again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("text_fault", ["int", "surrogate"])
    @pytest.mark.parametrize(
        "first,second",
        list(combinations(["day", "amount_minor", "kind", "txn_id", "category"], 2)),
    )
    def test_first_bad_field_is_named(self, first, second, text_fault):
        bad_text, text_message = {
            "int": (7, "must be a string, got 7"),
            "surrogate": ("t\ud800", "is not valid UTF-8 text: 't\\ud800'"),
        }[text_fault]
        fields = dict(day=1, kind="purchase", txn_id="t1", amount_minor=100,
                      category="GROCERY")
        for name in (first, second):
            fields[name] = "x" if name in ("day", "amount_minor") else bad_text
        with pytest.raises(ScenarioInvalid) as exc:
            run(scenario([ScenarioEvent(**fields)]))
        if first in ("day", "amount_minor"):
            assert str(exc.value) == f"event 0: {first} must be an integer, got 'x'"
        else:
            assert str(exc.value) == f"event 0: {first} {text_message}"


class TestReplay:
    def replay_round_trip(self, sc):
        import tempfile, pathlib

        report = run(sc, daily_snapshots=False)
        with tempfile.TemporaryDirectory() as d:
            first = pathlib.Path(d) / "a.jsonl"
            report.log.write_jsonl(first)
            second = pathlib.Path(d) / "b.jsonl"
            replay(first, sc.config).log.write_jsonl(second)
            assert first.read_bytes() == second.read_bytes()

    def test_replay_reproduces_sweeps(self):
        sc = scenario(
            [ev(1, "purchase", "t1", 10000), ev(12, "refund", "t1", 10000)],
            auto_redeem=True,
        )
        self.replay_round_trip(sc)

    def test_replay_reproduces_close_auto_redeem(self):
        sc = scenario(
            [ev(20, "purchase", "t1", 10000), ev(35, "refund", "t1", 10000)],
            variant="B",
        )
        self.replay_round_trip(sc)

    def test_rebuilt_scenario_disables_sweep(self):
        sc = scenario([ev(1, "purchase", "t1", 10000)], auto_redeem=True)
        report = run(sc, daily_snapshots=False)
        rebuilt = scenario_from_log(report.log, sc.config, "again")
        assert not rebuilt.auto_redeem
        assert any(e.kind == "redeem-request" for e in rebuilt.events)

    def test_rebuilt_scenario_takes_the_logged_user(self):
        sc = scenario([ev(1, "purchase", "t1", 10000)])
        sc.user = ""
        log = run(sc, daily_snapshots=False).log
        assert scenario_from_log(log, sc.config, "again", user="bob").user == ""
        assert scenario_from_log(EventLog(), sc.config, "none", user="bob").user == "bob"

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(["defensive-instant", "defensive-cycle", "B", "F"]),
        purchases=st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 500)),
            min_size=1, max_size=4,
        ),
        refund_all=st.booleans(),
        auto=st.booleans(),
        user=st.sampled_from(["", "u1", "bob"]),
    )
    def test_replay_identity_random(self, variant, purchases, refund_all, auto, user):
        events = []
        for i, (day, dollars) in enumerate(purchases):
            events.append(ev(day, "purchase", f"t{i}", dollars * 100))
            if refund_all:
                events.append(ev(day + 9, "refund", f"t{i}", dollars * 100))
        sc = scenario(events, variant=variant, auto_redeem=auto)
        sc.user = user
        self.replay_round_trip(sc)


class TestCollectorPause:
    """The builders of large record sets run with the cyclic collector
    paused, and leave it as the caller had it."""

    def spy_settlement(self, monkeypatch) -> list:
        seen = []
        settle = engine.reward_on_settlement

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return settle(*args, **kwargs)

        monkeypatch.setattr(engine, "reward_on_settlement", spy)
        return seen

    def test_off_inside_run(self, monkeypatch):
        seen = self.spy_settlement(monkeypatch)
        run(scenario([ev(1, "purchase", "t1", 10000)]))
        assert seen == [False]
        assert gc.isenabled()

    def test_off_inside_scenario_from_log(self):
        sc = scenario([ev(1, "purchase", "t1", 10000)])
        log = run(sc, daily_snapshots=False).log
        seen = []

        def events():
            seen.append(gc.isenabled())
            yield from log

        rebuilt = scenario_from_log(events(), sc.config, "again")
        assert seen == [False]
        assert len(rebuilt.events) == 1
        assert gc.isenabled()

    def test_on_again_after_scenario_invalid(self):
        with pytest.raises(ScenarioInvalid):
            run(scenario([ev(1, "refund", "t1", 10000)]))
        assert gc.isenabled()

    def test_stays_off_for_a_caller_that_turned_it_off(self, tmp_path):
        sc = scenario([ev(1, "purchase", "t1", 10000)])
        path = tmp_path / "a.jsonl"
        gc.disable()
        try:
            log = run(sc).log
            assert not gc.isenabled()
            scenario_from_log(log, sc.config, "again")
            assert not gc.isenabled()
            log.write_jsonl(path)
            replay(path, sc.config)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_replay_turns_it_on_once(self, tmp_path, monkeypatch):
        sc = scenario([ev(1, "purchase", "t1", 10000), ev(5, "refund", "t1", 10000)])
        path = tmp_path / "a.jsonl"
        run(sc).log.write_jsonl(path)
        seen = self.spy_settlement(monkeypatch)
        enables = []
        enable = gc.enable

        def counting():
            enables.append(gc.isenabled())
            enable()

        monkeypatch.setattr(gc, "enable", counting)
        replay(path, sc.config)
        assert seen == [False]
        assert enables == [False]
        assert gc.isenabled()


class TestLeakage:
    def test_exact_arithmetic(self):
        # 1% of a million users saturating a $50 cap every month
        loss = leakage_estimate(Fraction(1, 100), 1_000_000, 5000)
        assert loss == 600_000_000  # $6.0M in minor units

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            leakage_estimate(Fraction(3, 2), 10, 10)
        with pytest.raises(ValueError):
            leakage_estimate(Fraction(1, 2), -1, 10)

    @pytest.mark.parametrize(
        "minor,text",
        [
            (6_000_000, "0.06"),
            (60_000_000, "0.6"),
            (600_000_000, "6.0"),
            (6_000_000_000, "60.0"),
            (30_000_000_000, "300.0"),
        ],
    )
    def test_millions_formatting(self, minor, text):
        assert format_millions(minor) == text


class TestMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        purchases=st.lists(
            st.tuples(st.integers(0, 80), st.integers(1, 2000)),
            min_size=1, max_size=6,
        )
    )
    def test_instant_reward_never_decreases_without_refunds(self, purchases):
        events = [
            ev(day, "purchase", f"t{i}", dollars * 100)
            for i, (day, dollars) in enumerate(purchases)
        ]
        report = run(scenario(events))
        rewards = [s.net_reward for s in report.snapshots]
        assert rewards == sorted(rewards)
        assert report.integrity_ok
