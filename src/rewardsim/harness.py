"""Scenario model, deterministic event-driven simulation, and log replay.

A scenario is a labelled list of (day, kind, ...) intents plus an engine
configuration.  The simulation visits, in order, only the days on which
state can change: statement closes fire at the start of their day, then
the instant settlements due, then the day's intents in input order, then
the optional sweep-everything redemption policy.  Every intent is logged
before its effects, so the log alone reconstructs the run: ``replay``
re-executes the intent events and must reproduce the log byte for byte.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from . import engine
from .invariants import audit_log, net_reward, net_spend
from .issuers import ADJ_IMMEDIATE, ADJ_NONE, IssuerVariant, get_variant
from .ledger import (
    PENDING,
    EngineConfig,
    EventLog,
    Transaction,
    UserLedger,
    _collector_paused,
    check_fields,
    check_keys,
    equal_slots,
    load_json,
    shared_config,
    shared_text,
)

SCENARIO_KINDS = ("purchase", "refund", "chargeback", "redeem-request")
# each kind to itself: a loaded event holds the vocabulary's own string
_KINDS = {kind: kind for kind in SCENARIO_KINDS}


class ScenarioInvalid(ValueError):
    pass


# the type of each plain field of a scenario file and of an event, in
# check order, and the keys each may hold
_SCENARIO_FIELDS = {"label": str, "user": str, "auto_redeem": bool}
_SCENARIO_KEYS = frozenset({"schema", "config", "events", *_SCENARIO_FIELDS})
_EVENT_FIELDS = {"day": int, "amount_minor": int, "kind": str, "txn_id": str,
                 "category": str}
_EVENT_KEYS = _EVENT_FIELDS.keys()


class ScenarioEvent(NamedTuple):
    day: int
    kind: str
    txn_id: str = ""
    amount_minor: int = 0
    category: str = ""


class Scenario:
    __slots__ = _fields = ("label", "config", "events", "auto_redeem", "user")
    __eq__ = equal_slots
    __hash__ = None

    def __init__(self, label: str, config: EngineConfig, events: list | None = None,
                 auto_redeem: bool = False, user: str = "u1"):
        # the arguments by name
        check_fields(_SCENARIO_FIELDS, locals(), ScenarioInvalid)
        self.label = label
        self.config = config
        self.events = [] if events is None else events
        self.auto_redeem = auto_redeem
        self.user = user

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "label": self.label,
            "config": self.config.to_json_dict(),
            "auto_redeem": self.auto_redeem,
            "user": self.user,
            "events": [e._asdict() for e in self.events],
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "Scenario":
        if type(raw) is not dict:
            raise ScenarioInvalid("a scenario must be a JSON object")
        schema = raw.get("schema")
        # by type first: JSON true and 1.0 equal 1
        if type(schema) is not int or schema != 1:
            raise ScenarioInvalid(f"unsupported scenario schema: {schema!r}")
        check_keys(raw, _SCENARIO_KEYS, ("label", "config"), ScenarioInvalid,
                   "scenario key")
        check_fields({"events": list}, raw, ScenarioInvalid)
        events = []
        for index, e in enumerate(raw.get("events", [])):
            if type(e) is not dict:
                raise ScenarioInvalid(f"event {index} must be a JSON object, got {e!r}")
            # check_keys' test inline; it only words the refusal
            if not (e.keys() <= _EVENT_KEYS and "day" in e and "kind" in e):
                try:
                    check_keys(e, _EVENT_KEYS, ("day", "kind"), ScenarioInvalid, "key")
                except ScenarioInvalid as exc:
                    raise ScenarioInvalid(f"event {index}: {exc}") from None
            # ScenarioEvent's defaults; tuple.__new__ skips the named
            # tuple's Python-level __new__, which costs more than the tuple
            get = e.get
            kind = e["kind"]
            events.append(tuple.__new__(ScenarioEvent, (
                e["day"], _KINDS.get(kind, kind) if type(kind) is str else kind,
                shared_text(get("txn_id", "")), get("amount_minor", 0),
                shared_text(get("category", "")))))
        config = shared_config(EngineConfig.from_json_dict(raw["config"]))
        # absent optional keys take the defaults
        return cls(config=config, events=events,
                   **{k: shared_text(raw[k]) for k in _SCENARIO_FIELDS if k in raw})

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_json_dict(load_json(path, ScenarioInvalid, "scenario"))


class SimulationReport:
    __slots__ = ("label", "config", "ledger", "log", "final_day", "snapshots", "rrc")

    def __init__(self, label: str, config: EngineConfig, ledger: UserLedger,
                 log: EventLog, final_day: int):
        self.label = label
        self.config = config
        self.ledger = ledger
        self.log = log
        self.final_day = final_day
        self.snapshots = []
        self.rrc = []

    @property
    def net_reward(self) -> int:
        return net_reward(self.ledger)

    @property
    def net_spend(self) -> int:
        return net_spend(self.log)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "label": self.label,
            "config": self.config.to_json_dict(),
            "final_day": self.final_day,
            "final": {
                "balance_minor": self.ledger.balance,
                "redeemed_minor": self.ledger.redeemed_total,
                "net_reward_minor": self.net_reward,
                "net_spend_minor": self.net_spend,
            },
            "integrity": [s._asdict() for s in self.snapshots],
            "consistency": [v._asdict() for v in self.rrc],
            "events": [ev.to_json_dict() for ev in self.log],
        }


def default_consistency_window(config: EngineConfig) -> int:
    """Days a variant is allowed to lag behind a refund.

    Immediate-adjustment variants must re-align the same day; everything
    else gets one full statement period.
    """
    variant = get_variant(config.variant)
    return 0 if variant.refund_adjustment == ADJ_IMMEDIATE else config.period_length_days


class Simulation:
    """Single-user run of one scenario under one variant.  Its intent
    handlers own every refusal of an intent, raised before any effect;
    the engine checks none again, and ``run`` names the event."""

    def __init__(self, config: EngineConfig, user: str = "u1"):
        self.config = config
        self.variant: IssuerVariant = get_variant(config.variant)
        self.user = user
        self.ledger = UserLedger()
        self.txns: dict[str, Transaction] = {}
        self.period_txns: dict[int, list] = {}  # period -> its purchases
        self.reversed: dict[str, int] = {}  # principal refunded or charged back
        self.late_refunds: list = []  # (txn, amount) deferred to the close
        self.log = EventLog()
        # the horizon: one full period past the period of the last intent.
        # ``run`` sets it from the scenario's last day before any intent
        # posts; a sweep redemption, posted later, extends it
        self.final_day = -1
        self._due_settlements: list = []  # (due_day, txn)

    def _note_intent(self, day: int) -> None:
        horizon = self.config.close_day(self.config.period_of_day(day) + 1)
        if horizon > self.final_day:
            self.final_day = horizon

    # -- intent handlers ------------------------------------------------

    def _require_txn(self, txn_id: str) -> Transaction:
        try:
            return self.txns[txn_id]
        except KeyError:
            raise ScenarioInvalid(f"unknown transaction {txn_id!r}") from None

    def purchase(self, day: int, txn_id: str, amount: int, category: str) -> None:
        if txn_id in self.txns:
            raise ScenarioInvalid(f"duplicate transaction id {txn_id!r}")
        if amount <= 0:
            raise ScenarioInvalid(f"purchase amount must be positive, got {amount}")
        period = self.config.period_of_day(day)
        txn = Transaction(txn_id, self.user, amount, category, period)
        self.txns[txn_id] = txn
        self.period_txns.setdefault(period, []).append(txn)
        self.log.emit(day, "purchase", txn_id, self.user, amount, category, period)
        if self.variant.instant:
            due = day + self.config.delivery_delay_days
            if due == day:
                self._settle_instant(day, txn)
            else:
                self._due_settlements.append((due, txn))

    def _settle_instant(self, day: int, txn: Transaction) -> None:
        # refunds can land before a delayed settlement; the engine nets
        # out what the record counts
        engine.reward_on_settlement(self.ledger, txn, self.config, self.log, day)

    def refund(self, day: int, txn_id: str, x: int) -> None:
        txn = self._require_txn(txn_id)
        if x <= 0:
            raise ScenarioInvalid(f"refund amount must be positive, got {x}")
        reversed_so_far = self.reversed.get(txn_id, 0)
        if reversed_so_far + x > txn.amount:
            raise ScenarioInvalid(
                f"refund {x} exceeds remaining principal on {txn_id!r}"
            )
        self.reversed[txn_id] = reversed_so_far + x
        self.log.emit(day, "refund-posted", txn_id, self.user, -x,
                      txn.category, txn.period)
        adjustment = self.variant.refund_adjustment
        if txn.status is PENDING or adjustment == ADJ_NONE:
            # no reward to adjust yet, or a settled one never adjusted
            engine.refund_principal(txn, x)
        elif adjustment == ADJ_IMMEDIATE:
            engine.reward_on_refund(
                self.ledger, txn, x, self.log, day,
                current_period=self.config.period_of_day(day),
                floor_balance_at_zero=self.variant.floors_at_zero,
            )
        else:
            self.late_refunds.append((txn, x))

    def chargeback(self, day: int, txn_id: str) -> None:
        txn = self._require_txn(txn_id)
        # the harness's own tally, not the status: a refund deferred to
        # the close leaves a fully refunded transaction SETTLED until then
        remaining = txn.amount - self.reversed.get(txn_id, 0)
        if not remaining:
            raise ScenarioInvalid(f"chargeback finds no principal left on {txn_id!r}")
        if txn.status is PENDING:
            raise ScenarioInvalid("chargeback requires a settled or partly refunded "
                                  f"transaction, {txn_id!r} is PENDING")
        self.reversed[txn_id] = txn.amount
        self.log.emit(day, "chargeback-posted", txn_id, self.user, -remaining,
                      txn.category, txn.period)
        if self.variant.refund_adjustment == ADJ_NONE:
            engine.chargeback_principal(txn)
        else:
            # forced reversals never wait for the cycle close; the claw
            # covers refunds still deferred to it, which then lapse
            engine.reward_on_chargeback(
                self.ledger, txn, self.log, day,
                current_period=self.config.period_of_day(day),
                floor_balance_at_zero=self.variant.floors_at_zero,
            )
            self.late_refunds = [late for late in self.late_refunds
                                 if late[0] is not txn]

    def redeem_request(self, day: int, y: int) -> None:
        if y <= 0:
            raise ScenarioInvalid(f"redemption amount must be positive, got {y}")
        self._post_redeem_request(day, y)
        if engine.can_redeem(self.ledger, y, day, self.config).allowed:
            engine.redeem(self.ledger, y, day, self.config, self.log, self.user)

    def _post_redeem_request(self, day: int, y: int) -> None:
        self.log.emit(day, "redeem-request", "", self.user, -y, "",
                      self.config.period_of_day(day))

    # -- clock ----------------------------------------------------------

    def close_period(self, period: int) -> None:
        day = self.config.close_day(period)
        grace = self.config.grace_days if self.variant.uses_grace_hold else 0
        late, self.late_refunds = self.late_refunds, []
        engine.statement_cycle_reconcile(
            self.ledger, self.period_txns.get(period, []), late, period,
            self.config, self.log, day,
            grace_days=grace, floor_balance_at_zero=self.variant.floors_at_zero,
            user=self.user,
        )
        # a payout, like the sweep, asks for the balance above b_min:
        # the gate refuses any more
        y = self.ledger.balance - self.config.b_min
        if self.variant.auto_redeem_at_close and y > 0:
            if engine.can_redeem(self.ledger, y, day, self.config).allowed:
                engine.redeem(self.ledger, y, day, self.config, self.log, self.user)

    def _sweep_policy(self, day: int) -> None:
        y = self.ledger.balance - self.config.b_min
        if y > 0 and engine.can_redeem(self.ledger, y, day, self.config).allowed:
            # the sweep's intent is the only one posted after the run set
            # the horizon from the scenario's last day, so it alone moves it
            self._note_intent(day)
            self._post_redeem_request(day, y)
            engine.redeem(self.ledger, y, day, self.config, self.log, self.user)


@_collector_paused
def run(scenario: Scenario, daily_snapshots: bool = True) -> SimulationReport:
    """Execute a scenario to quiescence.

    The horizon runs one full period past the period of the last intent,
    so every deferred settlement, clawback, and hold has resolved when
    the report is produced.  An empty scenario produces an empty log.

    Each visited day runs, in order, the statement close due that day,
    the instant settlements due, the day's intents in input order, and
    the sweep policy.  The clock is event-driven: from a visited day it
    jumps to the earliest of the next statement close, the next intent
    day, the next due settlement and, with the sweep on, the end of a
    grace hold that lies ahead.

    Closes are visited only under a variant that defers work to them
    (``IssuerVariant.defers_to_close``) or with a delivery delay, which
    can leave a settlement pending at a close.  Under any other variant
    a close has nothing to do, so the run skips it: it visits only
    intent days, from the first to the last.

    The sweep is a no-op on every day skipped, because:

    - balance, hold and cap state change only on visited days;
    - ``can_redeem`` depends on the day only through ``today < hold``,
      which changes value on the hold day, a visited one;
    - the sweep asks for the balance above ``b_min``, so its ``b_min``
      test (``balance - y = b_min >= b_min``) does not depend on the day.

    A sweep that redeems moves the horizon, so ``sim.final_day`` is read
    again after every visit.
    """
    sim = Simulation(scenario.config, user=scenario.user)
    config = scenario.config
    # every event is checked before any runs, and before the days sort, so
    # a text day cannot fail inside it; bool is an int subclass, and a
    # float day or amount would reach the ledger.  Grouping in input order
    # and sorting the days equals a stable sort by day, then grouping.
    events = scenario.events
    by_day: dict[int, list] = {}  # day -> its events' positions
    for index, ev in enumerate(events):
        day, kind, txn_id, amount, category = ev
        # one test passes every well-typed ASCII event; any other event
        # is checked field by field, which names the first fault
        if not (type(day) is int and type(amount) is int
                and type(kind) is str and type(txn_id) is str
                and type(category) is str and kind.isascii()
                and txn_id.isascii() and category.isascii()):
            try:
                check_fields(_EVENT_FIELDS, ev._asdict(), ScenarioInvalid)
            except ScenarioInvalid as exc:
                raise ScenarioInvalid(f"event {index}: {exc}") from None
        if kind not in SCENARIO_KINDS:
            raise ScenarioInvalid(f"event {index}: unknown scenario event kind {kind!r}")
        if day < 0:
            raise ScenarioInvalid(f"event {index}: negative day {day}")
        by_day.setdefault(day, []).append(index)
    days = sorted(by_day)
    if days:
        # the last scenario intent bounds the run before it posts
        sim._note_intent(days[-1])

    length = config.period_length_days
    closes = sim.variant.defers_to_close or config.delivery_delay_days > 0
    due = sim._due_settlements
    intent_days = iter(days)
    next_intent = next(intent_days, None)
    # without closes no state exists before the first intent
    day = 0 if closes or next_intent is None else next_intent
    while day <= sim.final_day:
        if closes and day > 0 and day % length == 0:
            sim.close_period(day // length - 1)
        while due and due[0][0] <= day:
            _, txn = due.pop(0)
            if txn.status is PENDING:
                sim._settle_instant(day, txn)
        if day == next_intent:
            try:
                for index in by_day[day]:
                    _, kind, txn_id, amount, category = events[index]
                    if kind == "purchase":
                        sim.purchase(day, txn_id, amount, category)
                    elif kind == "refund":
                        sim.refund(day, txn_id, amount)
                    elif kind == "chargeback":
                        sim.chargeback(day, txn_id)
                    elif kind == "redeem-request":
                        sim.redeem_request(day, amount)
            except ScenarioInvalid as exc:
                raise ScenarioInvalid(f"event {index}: {exc}") from None
            next_intent = next(intent_days, None)
        if scenario.auto_redeem:
            # a sweep posts an intent, which moves the horizon as the
            # scenario's last intent does, so a replay runs the same closes
            sim._sweep_policy(day)
        # jump to the next day on which state can change; without
        # closes that is the next intent, and past the last one the run ends
        nxt = (day // length + 1) * length if closes else sim.final_day + 1
        if next_intent is not None and next_intent < nxt:
            nxt = next_intent
        if due and due[0][0] < nxt:
            nxt = due[0][0]
        if scenario.auto_redeem:
            hold = sim.ledger.redemption_hold_until
            if hold is not None and day < hold < nxt:
                nxt = hold
        day = nxt

    report = SimulationReport(
        label=scenario.label,
        config=config,
        ledger=sim.ledger,
        log=sim.log,
        final_day=max(sim.final_day, 0),
    )
    if daily_snapshots:
        report.snapshots, report.rrc = audit_log(
            sim.log, config, default_consistency_window(config))
    return report


_INTENT_TO_SCENARIO = {
    "purchase": "purchase",
    "refund-posted": "refund",
    "chargeback-posted": "chargeback",
    "redeem-request": "redeem-request",
}


@_collector_paused
def scenario_from_log(log: EventLog, config: EngineConfig, label: str,
                      user: str = "u1") -> Scenario:
    """Rebuild the intent stream of a log as a runnable scenario.

    Reward-layer events are dropped: re-running the intents regenerates
    them.  Policy-driven sweeps appear in the log as redeem-request
    intents, so the rebuilt scenario never enables the sweep policy.
    Each intent keeps the user it was logged with, an empty one too; a
    log without intents keeps ``user``.
    """
    events = []
    for ev in log:
        kind = _INTENT_TO_SCENARIO.get(ev.kind)
        if kind is None:
            continue
        events.append(tuple.__new__(ScenarioEvent, (
            ev.day, kind, ev.txn_id, abs(ev.amount_minor), ev.category)))
        user = ev.user
    return Scenario(label=label, config=config, events=events,
                    auto_redeem=False, user=user)


@_collector_paused
def replay(log_path, config: EngineConfig, label: str = "replay") -> SimulationReport:
    """Re-run the intents of a stored log; the result must match it."""
    # one expression, so the read log's last reference goes when
    # scenario_from_log returns and it is freed before run starts
    return run(scenario_from_log(EventLog.read_jsonl(log_path), config, label),
               daily_snapshots=False)


# -- fleet-level loss estimation ---------------------------------------


def leakage_estimate(abuse_rate: Fraction, users: int, monthly_cap_minor: int) -> Fraction:
    """Exact annual loss in minor units for a cap-saturating abuser share."""
    if not 0 <= abuse_rate <= 1:
        raise ValueError(f"abuse rate outside [0, 1]: {abuse_rate}")
    if users < 0 or monthly_cap_minor < 0:
        raise ValueError("users and cap must be non-negative")
    return Fraction(abuse_rate) * users * 12 * monthly_cap_minor


def format_millions(minor) -> str:
    """Minor units as millions of dollars, trimmed to >= 1 decimal."""
    frac = Fraction(minor) / (100 * 10**6)
    d = Decimal(frac.numerator) / Decimal(frac.denominator)
    s = format(d.normalize(), "f")
    if "." not in s:
        s += ".0"
    return s
