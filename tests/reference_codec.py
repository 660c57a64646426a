"""Reference event-log codec: the original ``json.dumps`` encoder and
per-field reader, kept as a test-only oracle.  The reader has learned
one rule since: a line is refused in the order every input record is,
first a line that is not a JSON object, then a field the wire format
does not name, then a missing field, then each field's type, naming the
value.

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
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if not isinstance(raw, dict):
                raise ParseError(
                    line_no, f"a log line must be a JSON object, got {raw!r}"
                )
            unknown = [key for key in raw if key not in RewardEvent._fields]
            if unknown:
                raise ParseError(line_no, f"unknown field {unknown[0]!r}")
            missing = [name for name in RewardEvent._fields if name not in raw]
            if missing:
                raise ParseError(line_no, f"missing field {missing[0]!r}")
            ev = RewardEvent(**raw)
            for name in _INT_FIELDS:
                value = getattr(ev, name)
                # bool is an int subclass; JSON true is not a number
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ParseError(
                        line_no, f"{name} must be an integer, got {value!r}"
                    )
            for name in _TEXT_FIELDS:
                value = getattr(ev, name)
                if not isinstance(value, str):
                    raise ParseError(
                        line_no, f"{name} must be a string, got {value!r}"
                    )
            if ev.kind not in EVENT_KINDS:
                raise ParseError(line_no, f"unknown event kind {ev.kind!r}")
            expected = len(log.events) + 1
            if ev.seq != expected:
                raise SequenceGap(
                    f"line {line_no}: expected seq {expected}, got {ev.seq}"
                )
            log.events.append(ev)
    return log
