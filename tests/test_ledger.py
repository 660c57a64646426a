import json
from fractions import Fraction
from itertools import product

import pytest

from rewardsim import (
    ConfigError,
    EngineConfig,
    EventLog,
    IllegalTransition,
    ParseError,
    RewardEvent,
    Scenario,
    SequenceGap,
    Transaction,
)
from rewardsim.ledger import (
    CHARGEBACK,
    LEGAL_TRANSITIONS,
    PART_REF,
    PENDING,
    REFUNDED,
    SETTLED,
    transition,
)


def make_txn(**kw):
    defaults = dict(id="t1", user="u1", amount=10000, category="GROCERY", period=0)
    defaults.update(kw)
    return Transaction(**defaults)


# each key of the config's JSON layout and the constructor argument it sets
FIELD_OF_KEY = {
    "variant": "variant",
    "reward_rate_bps": "reward_rate",
    "monthly_cap_minor": "monthly_cap",
    "b_min_minor": "b_min",
    "grace_days": "grace_days",
    "period_length_days": "period_length_days",
    "delivery_delay_days": "delivery_delay_days",
}
# configs that set every field away from the constructor's default
CONFIGS_OFF_DEFAULT = [
    EngineConfig(
        reward_rate={"GROCERY": Fraction(5, 100), "*": Fraction(1, 100)},
        monthly_cap={"GROCERY": 5000}, b_min=100, grace_days=3,
        period_length_days=14, variant="defensive-cycle", delivery_delay_days=2,
    ),
    EngineConfig(
        reward_rate={"FUEL": Fraction(1, 10000)}, monthly_cap={"*": 0}, b_min=1,
        grace_days=0, period_length_days=7, variant="A", delivery_delay_days=9,
    ),
]


class TestTransaction:
    def test_positive_amount_required(self):
        with pytest.raises(ValueError):
            make_txn(amount=0)
        with pytest.raises(ValueError):
            make_txn(amount=-5)

    def test_legal_lifecycle_paths(self):
        t = make_txn()
        transition(t, SETTLED)
        transition(t, PART_REF)
        transition(t, PART_REF)
        transition(t, REFUNDED)
        assert t.status is REFUNDED

    def test_pending_cancel(self):
        t = make_txn()
        transition(t, REFUNDED)
        assert t.status is REFUNDED

    def test_chargeback_only_from_settled(self):
        t = make_txn()
        with pytest.raises(IllegalTransition):
            transition(t, CHARGEBACK)
        transition(t, SETTLED)
        transition(t, CHARGEBACK)

    def test_chargeback_from_partly_refunded(self):
        t = make_txn()
        transition(t, SETTLED)
        transition(t, PART_REF)
        transition(t, CHARGEBACK)
        assert t.status is CHARGEBACK

    def test_every_pair_of_statuses(self):
        # all 25 (src, dst) pairs: exactly the seven lifecycle edges pass
        edges = {
            (PENDING, SETTLED), (PENDING, REFUNDED),
            (SETTLED, PART_REF), (SETTLED, CHARGEBACK),
            (PART_REF, PART_REF), (PART_REF, REFUNDED),
            (PART_REF, CHARGEBACK),
        }
        accepted = set()
        for src, dst in product((PENDING, SETTLED, PART_REF, REFUNDED, CHARGEBACK),
                                repeat=2):
            t = make_txn()
            t.status = src
            try:
                assert transition(t, dst) is t
            except IllegalTransition as exc:
                assert (exc.src, exc.dst) == (src, dst)
                assert t.status is src
            else:
                assert t.status is dst
                accepted.add((src, dst))
        assert accepted == edges == LEGAL_TRANSITIONS

    @pytest.mark.parametrize(
        "src,dst",
        [
            (SETTLED, SETTLED),
            (SETTLED, PENDING),
            (REFUNDED, SETTLED),
            (CHARGEBACK, REFUNDED),
            (PART_REF, SETTLED),
            (SETTLED, REFUNDED),
        ],
    )
    def test_illegal_edges_rejected(self, src, dst):
        t = make_txn()
        t.status = src
        with pytest.raises(IllegalTransition):
            transition(t, dst)

    def test_illegal_transition_names_both_statuses(self):
        t = make_txn(status=SETTLED)
        with pytest.raises(IllegalTransition) as exc:
            transition(t, SETTLED)
        assert str(exc.value) == "illegal status transition SETTLED -> SETTLED"
        assert (exc.value.src, exc.value.dst) == ("SETTLED", "SETTLED")


class TestEventLog:
    def test_unknown_kind_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit(day=0, kind="mystery", txn_id="", user="u1", amount_minor=0)
        assert len(log) == 0
        ev = log.emit(day=0, kind="purchase", txn_id="t1", user="u1", amount_minor=1)
        assert ev.seq == 1

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=10000, category="GROCERY", period=0)
        log.emit(day=0, kind="settle", txn_id="t1", user="u1",
                 amount_minor=500, category="GROCERY", period=0)
        path = tmp_path / "log.jsonl"
        log.write_jsonl(path)
        loaded = EventLog.read_jsonl(path)
        assert [e.to_json_line() for e in loaded] == [e.to_json_line() for e in log]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = RewardEvent(1, 0, "purchase", "t1", "u1", 100, "", 0).to_json_line()
        path.write_text(good + "\n{not json}\n")
        with pytest.raises(ParseError) as exc:
            EventLog.read_jsonl(path)
        assert exc.value.line_no == 2

    def test_non_integer_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        raw = json.loads(RewardEvent(1, 0, "purchase", "t1", "u1", 100, "", 0).to_json_line())
        raw["amount_minor"] = 1.5
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(ParseError):
            EventLog.read_jsonl(path)

    def test_sequence_gap_in_file(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        lines = [
            RewardEvent(1, 0, "purchase", "t1", "u1", 100, "", 0).to_json_line(),
            RewardEvent(3, 0, "settle", "t1", "u1", 5, "", 0).to_json_line(),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SequenceGap):
            EventLog.read_jsonl(path)


class TestRewardEvent:
    WIRE_ORDER = ["seq", "day", "kind", "txn_id", "user", "amount_minor",
                  "category", "period"]

    def event(self, **kw):
        values = dict(seq=1, day=3, kind="settle", txn_id="t1", user="u1",
                      amount_minor=500, category="GROCERY", period=0)
        values.update(kw)
        return RewardEvent(**values)

    def test_equal_and_hashed_by_value(self):
        a, b = self.event(), self.event()
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != self.event(amount_minor=499)

    @pytest.mark.parametrize("name", WIRE_ORDER)
    def test_fields_cannot_be_assigned(self, name):
        ev = self.event()
        with pytest.raises(AttributeError):
            setattr(ev, name, 0)
        assert ev == self.event()

    def test_json_dict_has_the_eight_fields_in_wire_order(self):
        raw = self.event().to_json_dict()
        assert type(raw) is dict
        assert list(raw) == self.WIRE_ORDER
        assert raw == {"seq": 1, "day": 3, "kind": "settle", "txn_id": "t1",
                       "user": "u1", "amount_minor": 500, "category": "GROCERY",
                       "period": 0}
        assert json.dumps(raw) == self.event().to_json_line()

    def test_read_back_event_equals_the_emitted_one(self, tmp_path):
        log = EventLog()
        emitted = [
            log.emit(day=2, kind="purchase", txn_id="t1", user="u1",
                     amount_minor=10000, category="GROCERY", period=0),
            log.emit(day=2, kind="settle", txn_id="t1", user="u1",
                     amount_minor=500, category="GROCERY", period=0),
            log.emit(day=9, kind="redeem", txn_id="", user="u1",
                     amount_minor=-500),
        ]
        path = tmp_path / "log.jsonl"
        log.write_jsonl(path)
        loaded = list(EventLog.read_jsonl(path))
        assert loaded == emitted
        for ev in emitted:
            values = [json.loads(ev.to_json_line())[k] for k in self.WIRE_ORDER]
            assert RewardEvent(*values) == ev


class TestEngineConfig:
    def test_wildcard_rate_and_cap(self):
        cfg = EngineConfig(
            reward_rate={"*": Fraction(1, 100), "GROCERY": Fraction(5, 100)},
            monthly_cap={"GROCERY": 5000},
        )
        assert cfg.rate("GROCERY") == Fraction(5, 100)
        assert cfg.rate("FUEL") == Fraction(1, 100)
        assert cfg.cap("GROCERY") == 5000
        assert cfg.cap("FUEL") is None

    def test_never_equal_to_another_type(self):
        # equal_slots returns NotImplemented, so Python falls back to
        # identity rather than comparing slots of unlike objects
        assert EngineConfig().__eq__(5) is NotImplemented
        assert (EngineConfig() == 5) is False
        assert (Scenario("x", EngineConfig()) == "x") is False

    def test_unknown_category_earns_nothing(self):
        cfg = EngineConfig(reward_rate={"GROCERY": Fraction(5, 100)})
        assert cfg.rate("FUEL") == 0

    def test_period_arithmetic(self):
        cfg = EngineConfig(period_length_days=30)
        assert cfg.period_of_day(0) == 0
        assert cfg.period_of_day(29) == 0
        assert cfg.period_of_day(30) == 1
        assert cfg.close_day(0) == 30

    @pytest.mark.parametrize(
        "kw",
        [
            {"reward_rate": {"X": Fraction(3, 2)}},
            {"reward_rate": {"X": Fraction(-1, 100)}},
            {"monthly_cap": {"X": -1}},
            {"period_length_days": 0},
            {"grace_days": 30},
            {"grace_days": -1},
            {"delivery_delay_days": -1},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            EngineConfig(**kw)

    def test_json_round_trip(self):
        cfg = EngineConfig(
            reward_rate={"GROCERY": Fraction(5, 100), "*": Fraction(1, 100)},
            monthly_cap={"GROCERY": 5000},
            b_min=100,
            grace_days=7,
            period_length_days=30,
            variant="defensive-cycle",
        )
        again = EngineConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_empty_json_config_is_the_default(self):
        assert EngineConfig.from_json_dict({}) == EngineConfig()

    @pytest.mark.parametrize("cfg", CONFIGS_OFF_DEFAULT, ids=["cycle", "A"])
    def test_every_field_off_its_default_round_trips(self, cfg):
        default = EngineConfig()
        assert all(getattr(cfg, name) != getattr(default, name)
                   for name in EngineConfig._fields)
        assert EngineConfig.from_json_dict(cfg.to_json_dict()) == cfg

    @pytest.mark.parametrize("key", list(FIELD_OF_KEY))
    def test_absent_json_key_takes_the_constructor_default(self, key):
        cfg = CONFIGS_OFF_DEFAULT[0]
        raw = cfg.to_json_dict()
        del raw[key]
        loaded = EngineConfig.from_json_dict(raw)
        default = EngineConfig()
        for name in EngineConfig._fields:
            source = default if name == FIELD_OF_KEY[key] else cfg
            assert getattr(loaded, name) == getattr(source, name), name

    def test_rates_serialize_as_basis_points(self):
        cfg = EngineConfig(reward_rate={"GROCERY": Fraction(5, 100)})
        raw = cfg.to_json_dict()
        assert raw["reward_rate_bps"] == {"GROCERY": 500}

    @pytest.mark.parametrize(
        "kw,field",
        [
            ({"reward_rate": {"G": 0.05}}, "rate for 'G'"),
            ({"reward_rate": {"G": 1}}, "rate for 'G'"),
            ({"reward_rate": [("G", Fraction(1, 20))]}, "reward_rate"),
            ({"reward_rate": {5: Fraction(1, 20)}}, "reward_rate category"),
            ({"monthly_cap": {"G": 50.0}}, "cap for 'G'"),
            ({"monthly_cap": {"G": True}}, "cap for 'G'"),
            ({"monthly_cap": None}, "monthly_cap"),
            ({"b_min": True}, "b_min"),
            # a negative b_min let a redemption overdraw the balance
            ({"b_min": -1}, "b_min"),
            ({"grace_days": 7.0}, "grace_days"),
            ({"period_length_days": 30.0}, "period_length_days"),
            ({"period_length_days": True}, "period_length_days"),
            ({"delivery_delay_days": "0"}, "delivery_delay_days"),
            ({"variant": None}, "variant"),
            ({"variant": "Z"}, "variant"),
        ],
        ids=["float-rate", "int-rate", "rate-pairs", "int-category", "float-cap",
             "bool-cap", "no-cap-map", "bool-b-min", "negative-b-min", "float-grace", "float-period",
             "bool-period", "text-delay", "no-variant", "unknown-variant"],
    )
    def test_python_built_config_checked(self, kw, field):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            EngineConfig(**kw)

    @pytest.mark.parametrize(
        "raw,field",
        [
            ([], "config"),
            ("defensive-cycle", "config"),
            ({"reward_rate_bps": []}, "reward_rate_bps"),
            ({"monthly_cap_minor": 5000}, "monthly_cap_minor"),
            ({"reward_rate_bps": {"G": 5.5}}, "reward_rate_bps for 'G'"),
            ({"reward_rate_bps": {"G": True}}, "reward_rate_bps for 'G'"),
            ({"monthly_cap_minor": {"G": "5000"}}, "cap for 'G'"),
            ({"period_length_days": 30.0}, "period_length_days"),
            ({"grace_days": False}, "grace_days"),
            ({"b_min_minor": None}, "b_min"),
            ({"b_min_minor": -1}, "b_min"),
            ({"variant": ["A"]}, "variant"),
            ({"variant": "defensive"}, "variant"),
        ],
        ids=["list", "text", "rate-list", "int-cap-map", "float-bps", "bool-bps",
             "text-cap", "float-period", "bool-grace", "null-b-min", "negative-b-min",
             "list-variant",
             "unknown-variant"],
    )
    def test_json_config_checked(self, raw, field):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            EngineConfig.from_json_dict(raw)

    def test_rate_off_the_basis_point_grid_is_not_saved(self):
        # 1/3 used to be written as 3333 bps, so save -> load -> replay
        # ran a different rate
        cfg = EngineConfig(reward_rate={"G": Fraction(5, 100), "X": Fraction(1, 3)})
        with pytest.raises(ConfigError, match="rate for 'X' is not a whole number "
                                              "of basis points: 1/3"):
            cfg.to_json_dict()

    @pytest.mark.parametrize("bps", [0, 1, 333, 2500, 9999, 10000])
    def test_whole_basis_points_round_trip(self, bps):
        cfg = EngineConfig(reward_rate={"G": Fraction(bps, 10000)})
        raw = cfg.to_json_dict()
        assert raw["reward_rate_bps"] == {"G": bps}
        assert EngineConfig.from_json_dict(raw) == cfg
