"""Reference event-log codec: the original ``json.dumps`` encoder and
per-field reader, kept as a test-only oracle.  The reader has learned
one rule since: a line with a field the wire format does not name is
refused, as unknown scenario, event and config keys are.

``rewardsim.ledger`` encodes with one f-string and chooses its read
path per file: a file made only of the writer's own lines is read by
one scan of a compiled pattern of those bytes (``_wire_events``), any
other file line by line by ``json.loads`` and one per-field check
(``_scan_lines``); ``tests/test_codec.py`` asserts that both paths give
the same bytes, the same events and the same errors as these functions.
"""

from __future__ import annotations

import json

from rewardsim.ledger import EVENT_KINDS, EventLog, ParseError, RewardEvent, SequenceGap

_INT_FIELDS = ("seq", "day", "amount_minor", "period")
_TEXT_FIELDS = ("kind", "txn_id", "user", "category")


def to_json_line(ev: RewardEvent) -> str:
    # field order is part of the wire format
    return json.dumps(
        {
            "seq": ev.seq,
            "day": ev.day,
            "kind": ev.kind,
            "txn_id": ev.txn_id,
            "user": ev.user,
            "amount_minor": ev.amount_minor,
            "category": ev.category,
            "period": ev.period,
        }
    )


def write_jsonl(log: EventLog, path) -> None:
    with open(path, "w") as fh:
        for ev in log.events:
            fh.write(to_json_line(ev) + "\n")


def read_jsonl(path) -> EventLog:
    log = EventLog()
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                ev = RewardEvent(
                    seq=raw["seq"],
                    day=raw["day"],
                    kind=raw["kind"],
                    txn_id=raw["txn_id"],
                    user=raw["user"],
                    amount_minor=raw["amount_minor"],
                    category=raw["category"],
                    period=raw["period"],
                )
            except KeyError as exc:
                raise ParseError(line_no, f"missing field {exc}") from exc
            except (json.JSONDecodeError, TypeError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            unknown = [key for key in raw if key not in RewardEvent._fields]
            if unknown:
                raise ParseError(line_no, f"unknown field {unknown[0]!r}")
            for name in _INT_FIELDS:
                value = getattr(ev, name)
                # bool is an int subclass; JSON true is not a number
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ParseError(
                        line_no, f"{name} must be an integer, got {value!r}"
                    )
            for name in _TEXT_FIELDS:
                if not isinstance(getattr(ev, name), str):
                    raise ParseError(line_no, f"{name} must be a string")
            if ev.kind not in EVENT_KINDS:
                raise ParseError(line_no, f"unknown event kind {ev.kind!r}")
            try:
                log.append(ev)
            except SequenceGap as exc:
                raise SequenceGap(f"line {line_no}: {exc}") from None
    return log
