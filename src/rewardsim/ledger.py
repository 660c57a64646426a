"""Core ledger state: transactions and their rewards, the user ledger,
the append-only event log, and engine configuration.

Every value that represents money is an int in minor units.  The event
log is the audit trail: replaying it through the same configuration
reproduces ledger state bit for bit.
"""

from __future__ import annotations

import functools
import gc
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import NamedTuple

from .issuers import VARIANTS


# The transaction statuses.  A transaction's status is always one of
# these objects, so code tests it by identity.
PENDING = "PENDING"
SETTLED = "SETTLED"
PART_REF = "PART_REF"
REFUNDED = "REFUNDED"
CHARGEBACK = "CHARGEBACK"

# Legal edges of the transaction lifecycle.  Everything else is rejected,
# including SETTLED -> SETTLED.
LEGAL_TRANSITIONS = frozenset(
    {
        (PENDING, SETTLED),
        (PENDING, REFUNDED),  # cancel
        (SETTLED, PART_REF),
        (SETTLED, CHARGEBACK),
        (PART_REF, PART_REF),
        (PART_REF, REFUNDED),
        (PART_REF, CHARGEBACK),
    }
)


class IllegalTransition(Exception):
    def __init__(self, src: str, dst: str):
        super().__init__(f"illegal status transition {src} -> {dst}")
        self.src = src
        self.dst = dst


class SequenceGap(ValueError):
    """Event appended out of sequence."""


class LogInvalid(ValueError):
    """A log event contradicts the events before it, named by its seq."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"seq {seq}: {message}")
        self.seq = seq


def _collector_paused(fn):
    """``fn`` run with the cyclic garbage collector paused.

    The records a log or scenario holds are tuple subclasses, which the
    collector tracks for life, and building thousands of them makes it
    walk them again and again while it frees nothing: these builders make
    no reference cycles.  The collector is turned back on at exit only if
    it was on at entry, so a caller that turned it off finds it off, and
    nested builders turn it on once, at the outermost exit.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Transaction:
    """One purchase and its reward state.  Persists for the account lifetime.

    ``reward_original`` is written once, at settlement.  ``claw_base`` is
    the amount the settlement reward was computed against (the amount less
    any principal refunded while pending), and is the divisor for
    proportional clawback.  ``total_refunded`` counts all principal
    refunded or charged back: it counts each reversal when it posts,
    except a refund deferred to the close, which counts from the close.
    The engine keeps all three; until settlement ``reward_original`` and
    ``claw_base`` read 0 and the amount.
    """

    __slots__ = ("id", "user", "amount", "category", "period", "status",
                 "reward_original", "total_refunded", "claw_base")

    def __init__(self, id: str, user: str, amount: int, category: str, period: int,
                 status: str = PENDING):
        if amount <= 0:
            raise ValueError(f"transaction amount must be positive, got {amount}")
        self.id = id
        self.user = user
        self.amount = amount  # minor units, > 0
        self.category = category
        self.period = period  # billing-period index of the purchase
        self.status = status
        self.reward_original = 0
        self.total_refunded = 0
        self.claw_base = amount


def transition(txn: Transaction, target: str) -> Transaction:
    """Apply one legal lifecycle edge.  Status only, no ledger effects."""
    if (txn.status, target) not in LEGAL_TRANSITIONS:
        raise IllegalTransition(txn.status, target)
    txn.status = target
    return txn


class UserLedger:
    __slots__ = ("balance", "redeemed_total", "monthly_used", "redemption_hold_until")

    def __init__(self, balance: int = 0, redeemed_total: int = 0,
                 monthly_used: dict | None = None,
                 redemption_hold_until: int | None = None):
        self.balance = balance  # may go negative via clawback only
        self.redeemed_total = redeemed_total
        # (period, category) -> int
        self.monthly_used = {} if monthly_used is None else monthly_used
        self.redemption_hold_until = redemption_hold_until  # day index

    def used(self, period: int, category: str) -> int:
        return self.monthly_used.get((period, category), 0)


# The event kinds by role.  Principal flow: purchases positive,
# reversals negative.
REVERSAL_KINDS = frozenset({"refund-posted", "chargeback-posted"})
PRINCIPAL_KINDS = REVERSAL_KINDS | {"purchase"}
# the intents a scenario posts, re-executed by replay
INTENT_KINDS = PRINCIPAL_KINDS | {"redeem-request"}
# reward grants (positive) and clawbacks (negative): the net reward
GRANT_KINDS = frozenset({"settle", "reconcile-settle"})
CLAW_KINDS = frozenset({"refund", "chargeback", "reconcile-clawback"})
REWARD_KINDS = GRANT_KINDS | CLAW_KINDS
# a redeem moves value from balance to redeemed and leaves the net
# reward as it is; a hold-set carries no amount
EVENT_KINDS = INTENT_KINDS | REWARD_KINDS | {"redeem", "hold-set"}


class RewardEvent(NamedTuple):
    """One log event: an immutable named tuple, fields in wire order."""

    seq: int
    day: int
    kind: str
    txn_id: str
    user: str
    amount_minor: int
    category: str
    period: int

    def to_json_line(self) -> str:
        # field order, separators and ASCII escaping are the wire format:
        # the bytes of json.dumps(self.to_json_dict()) at a fifth of the
        # cost, for the int and str fields that scenario and log loading
        # admit
        seq, day, kind, txn_id, user, amount_minor, category, period = self
        return (
            f'{{"seq": {seq}, "day": {day}, '
            f'"kind": {_quote(kind)}, "txn_id": {_quote(txn_id)}, '
            f'"user": {_quote(user)}, "amount_minor": {amount_minor}, '
            f'"category": {_quote(category)}, "period": {period}}}'
        )

    def to_json_dict(self) -> dict:
        return self._asdict()


# the eight fields in wire order
_wire_values = itemgetter(*RewardEvent._fields)
# each field's type, in check order: integers first
_LINE_FIELDS = {"seq": int, "day": int, "amount_minor": int, "period": int,
                "kind": str, "txn_id": str, "user": str, "category": str}
# each kind to itself: a read event holds the vocabulary's own string,
# not a copy of it per line
_KINDS = {kind: kind for kind in EVENT_KINDS}
# the events the writer encodes into one string
_WRITE_BLOCK = 4096

# Every line of a text as to_json_line writes it, when each integer has
# at most 18 digits (int() takes any such group), each text field is
# printable ASCII with no '"' or '\' (so its JSON string is its own text)
# and the kind is known.  A match is one whole line and proves every
# check _scan_line makes but the seq gap.
_INT = "(-?(?:0|[1-9][0-9]{0,17}))"
_TEXT = '"([ !#-\\[\\]-~]*)"'
_WIRE_LINES = re.compile(
    f'^{{"seq": {_INT}, "day": {_INT}, '
    f'"kind": "({"|".join(map(re.escape, sorted(EVENT_KINDS)))})", '
    f'"txn_id": {_TEXT}, "user": {_TEXT}, "amount_minor": {_INT}, '
    f'"category": {_TEXT}, "period": {_INT}}}$',
    re.MULTILINE,
)


# how a refusal names each field type
_NOUNS = {int: "an integer", str: "a string", bool: "true or false",
          dict: "a JSON object", list: "a JSON array"}


def check_keys(raw: dict, known, required, error, noun: str) -> None:
    """Refuse the first key of ``raw`` not in ``known`` (a set or a dict's
    keys), then the first of ``required`` it lacks: ``error`` is raised
    with ``unknown {noun} 'key'`` or ``missing {noun} 'key'``."""
    if not raw.keys() <= known:
        unknown = next(key for key in raw if key not in known)
        raise error(f"unknown {noun} {unknown!r}")
    for key in required:
        if key not in raw:
            raise error(f"missing {noun} {key!r}")


def check_fields(table: dict, values: dict, error) -> None:
    """Refuse, field by field in the order of ``table`` (name to type),
    the first of ``values`` not exactly of its type (JSON true is a bool,
    not an int) or text that is not valid UTF-8, such as a lone
    surrogate.  ``error`` is raised, unlocated, with ``{name} must be
    {noun}, got {value!r}`` or ``{name} is not valid UTF-8 text:
    {value!r}``.  A name ``values`` lacks is skipped: it takes its
    default."""
    for name, kind in table.items():
        if name not in values:
            continue
        value = values[name]
        if type(value) is not kind:
            raise error(f"{name} must be {_NOUNS[kind]}, got {value!r}")
        if kind is str and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{name} is not valid UTF-8 text: {value!r}") from None


class _RepeatedKey(Exception):
    """A JSON object gives one key, ``args[0]``, twice."""


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; ``_RepeatedKey`` for a key given
    twice, whose first value json.loads would silently drop."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return obj


def _parse_json(text: str, error):
    """The JSON document ``text``.  An object that repeats a key, JSON
    nested deeper than the recursion limit and an integer of more digits
    than int() takes raise ``error`` with a message; malformed JSON
    raises json's own error."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except _RepeatedKey as exc:
        raise error(f"JSON repeats key {exc.args[0]!r}") from None
    except RecursionError:
        raise error("JSON nested too deep") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # json raises a bare ValueError, not a JSONDecodeError, only where
        # int() refuses a number longer than the interpreter's digit limit
        raise error(f"JSON holds an {_long_integer()}") from None


def _scan_line(line_no: int, line: str) -> tuple:
    """The eight wire values of a stripped line read as json.loads reads
    it, or the located error for the first thing wrong with it, in the
    order every input record is refused: not a JSON object, an unknown
    field, a missing one (in wire order), then field by field
    (``check_fields``, integers first) a wrong type or text that is not
    valid UTF-8; then an unknown kind."""
    error = functools.partial(ParseError, line_no)
    try:
        raw = _parse_json(line, error)
    except json.JSONDecodeError as exc:
        raise error(str(exc)) from None
    if type(raw) is not dict:
        raise error(f"a log line must be a JSON object, got {raw!r}")
    check_keys(raw, _LINE_FIELDS.keys(), RewardEvent._fields, error, "field")
    check_fields(_LINE_FIELDS, raw, error)
    if raw["kind"] not in EVENT_KINDS:
        raise error(f"unknown event kind {raw['kind']!r}")
    raw["kind"] = _KINDS[raw["kind"]]
    return _wire_values(raw)


def _read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, each line end made a
    newline as text-mode reading makes it.  Bytes that are not UTF-8
    raise ParseError naming the line they are on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \n, \r\n or a lone \r
        head = data[:exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(line_no, "not valid UTF-8") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


class EventLog:
    """Append-only, contiguously sequenced event log."""

    def __init__(self):
        self.events: list[RewardEvent] = []

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def last_seq(self) -> int:
        return self.events[-1].seq if self.events else 0

    def append(self, event: RewardEvent) -> None:
        if event.seq != self.last_seq + 1:
            raise SequenceGap(
                f"expected seq {self.last_seq + 1}, got {event.seq}"
            )
        if event.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {event.kind!r}")
        self.events.append(event)

    def emit(
        self,
        day: int,
        kind: str,
        txn_id: str,
        user: str,
        amount_minor: int,
        category: str = "",
        period: int = 0,
    ) -> RewardEvent:
        # the next seq is the length: append and read_jsonl keep seqs
        # contiguous from 1
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        events = self.events
        ev = tuple.__new__(RewardEvent, (
            len(events) + 1, day, kind, txn_id, user, amount_minor, category, period
        ))
        events.append(ev)
        return ev

    def write_jsonl(self, path) -> None:
        # every line is encoded before the file is opened, so a log that
        # cannot be encoded leaves the file as it was; a block's line
        # strings are freed once it is joined, and the empty last item
        # ends its last line
        events = self.events
        blocks = [
            "\n".join([*map(RewardEvent.to_json_line,
                            events[start:start + _WRITE_BLOCK]), ""])
            for start in range(0, len(events), _WRITE_BLOCK)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)

    @classmethod
    @_collector_paused
    def read_jsonl(cls, path) -> "EventLog":
        log = cls()
        text = _read_text(path)
        # an empty file reads as no events on either path
        log.events = _wire_events(text) or _scan_lines(text)
        return log


def _wire_events(text: str) -> list | None:
    """The events of a text made only of lines the writer emits, with
    seqs 1..n, read by one pattern scan; None for any other text."""
    if not text.endswith("\n"):
        return None
    # finditer, not findall: findall's list of every line's groups would
    # be held beside the events, 2.5 MB at the peak of an 8k-event read
    events = [
        tuple.__new__(RewardEvent, (int(seq), int(day), _KINDS[kind], txn_id,
                                    user, int(amount), category, int(period)))
        for seq, day, kind, txn_id, user, amount, category, period
        in map(re.Match.groups, _WIRE_LINES.finditer(text))
    ]
    # each match is one whole line, so all lines match when the counts do
    if (len(events) != text.count("\n")
            or [ev[0] for ev in events] != list(range(1, len(events) + 1))):
        return None
    return events


def _scan_lines(text: str) -> list:
    """The events of ``text`` read line by line by ``_scan_line``, blank
    lines skipped; the first fault raises its located error."""
    events = []
    # split on \n alone: str.splitlines also splits at characters a
    # JSON string may hold raw, such as U+2028
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        values = _scan_line(line_no, line)
        if values[0] != len(events) + 1:
            raise SequenceGap(
                f"line {line_no}: expected seq {len(events) + 1}, got {values[0]}"
            )
        events.append(tuple.__new__(RewardEvent, values))
    return events


class ConfigError(ValueError):
    pass


def _long_integer() -> str:
    return f"integer of more than {sys.get_int_max_str_digits()} digits"


def load_json(path, error: type[Exception], what: str):
    """The JSON document in the file at ``path``.

    A file that is not UTF-8, malformed JSON, or JSON that
    ``_parse_json`` refuses raises ``error`` with a message naming
    ``what``.
    """
    try:
        text = _read_text(path)
    except ParseError as exc:
        raise error(f"{what} {exc}") from None
    try:
        return _parse_json(text, lambda message: error(f"{what} {message}"))
    except json.JSONDecodeError as exc:
        raise error(f"{what} JSON is malformed: {exc}") from None


_NO_RATE = Fraction(0)  # of a category with no rate and no "*" fallback

# each key of EngineConfig's JSON layout, in order, and the field it holds
_CONFIG_KEYS = {"variant": "variant", "reward_rate_bps": "reward_rate",
                "monthly_cap_minor": "monthly_cap", "b_min_minor": "b_min",
                "grace_days": "grace_days", "period_length_days": "period_length_days",
                "delivery_delay_days": "delivery_delay_days"}
_CONFIG_MAPS = {"reward_rate_bps": dict, "monthly_cap_minor": dict}
_CONFIG_INTS = {"b_min": int, "grace_days": int, "period_length_days": int,
                "delivery_delay_days": int}


def equal_slots(self, other):
    """``self == other`` for slotted classes: same class, every slot equal."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


# the default of a mapping argument: a new empty dict for each instance,
# distinct from None, which is refused
_NEW_DICT = object()


class EngineConfig:
    """Program rules plus the issuer-variant selector.

    ``reward_rate`` maps category to a Fraction in [0, 1]; the key "*"
    acts as a flat-rate fallback.  ``monthly_cap`` maps category to minor
    units ("*" fallback again); an absent category is uncapped.
    """

    __slots__ = ("reward_rate", "monthly_cap", "b_min", "grace_days",
                 "period_length_days", "variant", "delivery_delay_days")
    __eq__ = equal_slots
    __hash__ = None

    def __init__(self, reward_rate: dict = _NEW_DICT, monthly_cap: dict = _NEW_DICT,
                 b_min: int = 0, grace_days: int = 7, period_length_days: int = 30,
                 variant: str = "defensive-instant", delivery_delay_days: int = 0):
        self.reward_rate = {} if reward_rate is _NEW_DICT else reward_rate
        self.monthly_cap = {} if monthly_cap is _NEW_DICT else monthly_cap
        self.b_min = b_min
        self.grace_days = grace_days
        self.period_length_days = period_length_days
        self.variant = variant
        self.delivery_delay_days = delivery_delay_days
        # checked by type, not by isinstance: bool is an int subclass, and
        # a float rate or day count would reach the ledger's arithmetic
        for name in ("reward_rate", "monthly_cap"):
            value = getattr(self, name)
            if type(value) is not dict:
                raise ConfigError(f"{name} must be a mapping, got {value!r}")
            key = f"{name} category"
            for cat in value:
                check_fields({key: str}, {key: cat}, ConfigError)
        for cat, rate in self.reward_rate.items():
            if type(rate) is not Fraction:
                raise ConfigError(f"rate for {cat!r} must be a Fraction, got {rate!r}")
            # a Fraction's denominator is positive, so this is 0 <= rate <= 1
            # without two Fraction rich comparisons
            if not 0 <= rate.numerator <= rate.denominator:
                raise ConfigError(f"rate for {cat!r} outside [0,1]: {rate}")
        for cat, cap in self.monthly_cap.items():
            if type(cap) is not int:
                raise ConfigError(f"cap for {cat!r} must be an integer, got {cap!r}")
            if cap < 0:
                raise ConfigError(f"cap for {cat!r} negative: {cap}")
        check_fields(_CONFIG_INTS, locals(), ConfigError)  # the arguments by name
        if type(self.variant) is not str or self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {sorted(VARIANTS)}, got {self.variant!r}"
            )
        if self.period_length_days <= 0:
            raise ConfigError("period_length_days must be positive")
        if not 0 <= self.grace_days < self.period_length_days:
            raise ConfigError("grace_days must be in [0, period_length_days)")
        if self.b_min < 0:
            raise ConfigError("b_min must be >= 0")
        if self.delivery_delay_days < 0:
            raise ConfigError("delivery_delay_days must be >= 0")

    def rate(self, category: str) -> Fraction:
        if category in self.reward_rate:
            return self.reward_rate[category]
        return self.reward_rate.get("*", _NO_RATE)

    def cap(self, category: str) -> int | None:
        if category in self.monthly_cap:
            return self.monthly_cap[category]
        return self.monthly_cap.get("*")

    def period_of_day(self, day: int) -> int:
        return day // self.period_length_days

    def close_day(self, period: int) -> int:
        """Day on which period ``period`` closes (start of the next one)."""
        return (period + 1) * self.period_length_days

    # JSON uses basis points for rates so files stay float-free.
    def to_json_dict(self) -> dict:
        bps = {}
        for c, r in sorted(self.reward_rate.items()):
            whole = r * 10000
            if whole.denominator != 1:
                raise ConfigError(
                    f"rate for {c!r} is not a whole number of basis points: {r}"
                )
            bps[c] = whole.numerator
        doc = {key: getattr(self, name) for key, name in _CONFIG_KEYS.items()}
        doc["reward_rate_bps"] = bps
        doc["monthly_cap_minor"] = dict(sorted(self.monthly_cap.items()))
        return doc

    @classmethod
    def from_json_dict(cls, raw: dict) -> "EngineConfig":
        """Load the JSON layout; every field is checked as in ``__init__``."""
        if type(raw) is not dict:
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        check_keys(raw, _CONFIG_KEYS.keys(), (), ConfigError, "config key")
        check_fields(_CONFIG_MAPS, raw, ConfigError)
        # only the keys given: an absent one takes __init__'s default
        kwargs = {_CONFIG_KEYS[key]: value for key, value in raw.items()}
        if "reward_rate" in kwargs:
            rates = kwargs["reward_rate"] = {}
            for c, bps in raw["reward_rate_bps"].items():
                if type(bps) is not int:
                    raise ConfigError(
                        f"reward_rate_bps for {c!r} must be an integer, got {bps!r}"
                    )
                rates[c] = Fraction(bps, 10000)
        if "monthly_cap" in kwargs:
            kwargs["monthly_cap"] = dict(kwargs["monthly_cap"])
        return cls(**kwargs)
