"""The event-log codec against its reference and its golden files.

``reference_codec`` is the original ``json.dumps`` encoder and per-field
reader.  The encoder must give the same bytes for any text and any int,
the reader the same events for every well-formed file of valid text and
the same exception type and message for every malformed one.  The golden
logs in ``tests/fixtures`` were written by that original codec; they
catch a format drift that a round trip through one codec would hide.
"""

import gc
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec as ref
from rewardsim import EventLog, ParseError, RewardEvent, Scenario, ledger, run
from rewardsim.cli import main
from rewardsim.ledger import EVENT_KINDS

# the characters JSON escapes
escaped = st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\u2028\ufeff\U0001f600')
# any code point, lone surrogates too, and the characters JSON escapes
texts = st.text(st.one_of(
    st.characters(), st.characters(categories=["Cs"]), escaped,
), max_size=10)
# the text the reader accepts: no lone surrogates
valid_texts = st.text(st.one_of(
    st.characters(exclude_categories=["Cs"]), escaped,
), max_size=10)
ints = st.one_of(st.integers(), st.integers(min_value=-2**70, max_value=2**70))
events = st.builds(RewardEvent, ints, ints, texts, texts, texts, ints, texts, ints)


@given(events)
@settings(max_examples=300, deadline=None)
def test_encoder_matches_json_dumps(ev):
    assert ev.to_json_line() == ref.to_json_line(ev)
    assert ev.to_json_line() == json.dumps(ev.to_json_dict())


def wire_logs():
    """Logs the reader accepts: contiguous seqs, known kinds, valid text."""
    event = st.tuples(ints, st.sampled_from(sorted(EVENT_KINDS)), valid_texts,
                      valid_texts, ints, valid_texts, ints)
    return st.lists(event, max_size=8).map(lambda rows: [
        RewardEvent(seq, *row) for seq, row in enumerate(rows, start=1)
    ])


@given(wire_logs())
@settings(max_examples=100, deadline=None)
def test_writer_and_reader_match_reference(tmp_path_factory, evs):
    log = EventLog()
    for ev in evs:
        log.append(ev)
    path = tmp_path_factory.getbasetemp() / "codec.jsonl"
    log.write_jsonl(path)
    ref_path = path.with_suffix(".ref.jsonl")
    ref.write_jsonl(log, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    loaded = EventLog.read_jsonl(path)
    assert loaded.events == ref.read_jsonl(path).events == evs
    loaded.write_jsonl(ref_path)
    assert ref_path.read_bytes() == path.read_bytes()
    # the same events in json.dumps forms other than the writer's; a file
    # with any line the writer would not emit is read line by line, by
    # json.loads and the per-field check
    for form in ({"sort_keys": True}, {"separators": (",", ":")},
                 {"ensure_ascii": False}):
        path.write_text("".join(json.dumps(ev.to_json_dict(), **form) + "\n"
                                for ev in evs), encoding="utf-8")
        assert EventLog.read_jsonl(path).events == ref.read_jsonl(path).events == evs


def line(**overrides):
    raw = {"seq": 1, "day": 0, "kind": "purchase", "txn_id": "t1", "user": "u1",
           "amount_minor": 100, "category": "G", "period": 0}
    raw.update(overrides)
    return json.dumps(raw)


def without(name):
    raw = json.loads(line())
    del raw[name]
    return json.dumps(raw)


MALFORMED = {
    "bad-json": ["{broken"],
    "trailing-garbage": [line() + " x"],
    "blank-lines-then-gap": [line(), "", "  ", line(seq=3)],
    "array": ["[1, 2]"],
    "string": ['"x"'],
    "number": ["5"],
    "null": ["null"],
    **{f"missing-{name}": [without(name)] for name in
       ("seq", "day", "kind", "txn_id", "user", "amount_minor", "category", "period")},
    **{f"{value!r}-in-{name}": [line(**{name: value})]
       for name in ("seq", "day", "amount_minor", "period")
       for value in (True, False, 1.5, "x", None, [1])},
    **{f"int-in-{name}": [line(**{name: 7})]
       for name in ("kind", "txn_id", "user", "category")},
    "float-day-and-int-kind": [line(day=1.5, kind=7)],
    "int-user-and-bool-period": [line(user=1, period=True)],
    "unknown-kind": [line(), line(seq=2, kind="mystery")],
    "seq-gap": [line(), line(seq=3, kind="settle")],
    "seq-repeat": [line(), line(kind="settle")],
    "seq-zero": [line(seq=0)],
    # json.loads reads the extra key; the wire format has no place for it
    "unknown-field": [line(note="dropped")],
    "unknown-field-and-bool-seq": [line(seq=True, note="dropped")],
    "unknown-field-and-missing-day": [without("day")[:-1] + ', "note": 1}'],
    # lines json.loads refuses (a BOM, trailing data, a fault inside the
    # object, a bad escape) or reads to a float (NaN, infinities, exponents)
    "bom": ["\ufeff" + line()],
    "two-objects": [line() + line()],
    "fault-inside-object": ['{"seq": 1, "day": }'],
    "bad-escape": [line(txn_id="@").replace('"@"', '"t\\q"')],
    **{f"{token}-in-{name}": [line(**{name: "@"}).replace('"@"', token)]
       for name in ("seq", "day", "amount_minor", "period")
       for token in ("NaN", "Infinity", "-Infinity", "1e3")},
}


@pytest.mark.parametrize("name", ["kind", "txn_id", "user", "category"])
def test_reader_rejects_text_that_is_not_utf8(tmp_path, name):
    # the reference reader accepts a lone surrogate, which can be neither
    # printed nor replayed
    path = tmp_path / "bad.jsonl"
    bad = line(**{"seq": 2, "kind": "settle", name: "t\ud800"})
    path.write_text(line() + "\n" + bad + "\n")
    with pytest.raises(ParseError) as got:
        EventLog.read_jsonl(path)
    assert str(got.value) == f"line 2: {name} is not valid UTF-8 text: 't\\ud800'"


def test_reader_rejects_deep_nesting_at_any_depth(tmp_path):
    # near the recursion limit json.loads either reaches the unclosed
    # innermost array or runs out of stack first; the second may not
    # escape as RecursionError
    path = tmp_path / "deep.jsonl"
    limit = sys.getrecursionlimit()
    messages = set()
    for depth in range(limit - 300, limit + 10):
        path.write_text(line() + "\n" + "[" * depth + "x\n")
        with pytest.raises(ParseError) as got:
            EventLog.read_jsonl(path)
        messages.add(str(got.value).split(":")[1].strip())
    assert messages == {"Expecting value", "JSON nested too deep"}


@pytest.mark.parametrize("lines", MALFORMED.values(), ids=MALFORMED.keys())
def test_reader_errors_match_reference(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(text + "\n" for text in lines))
    with pytest.raises(Exception) as expected:
        ref.read_jsonl(path)
    with pytest.raises(expected.type) as got:
        EventLog.read_jsonl(path)
    assert got.type is expected.type
    assert str(got.value) == str(expected.value)


GOLDEN = ["walkthrough", "ddra_A", "ddra_F", "ddra_defensive_cycle",
          "cross_cycle_B", "empty", "close_refunds_cycle", "delayed_refund_instant",
          "rrc_blame_cycle", "rrc_blame_F"]


@pytest.mark.parametrize("name", GOLDEN)
def test_simulate_reproduces_golden_log(fixtures_dir, tmp_path, capsys, name):
    out = tmp_path / f"{name}.jsonl"
    main(["simulate", "--scenario", str(fixtures_dir / f"{name}.json"),
          "--log-out", str(out)])
    capsys.readouterr()
    golden = fixtures_dir / f"{name}.jsonl"
    assert out.read_bytes() == golden.read_bytes()
    again = tmp_path / "again.jsonl"
    EventLog.read_jsonl(golden).write_jsonl(again)
    assert again.read_bytes() == golden.read_bytes()


def test_every_scenario_fixture_has_a_golden_log(fixtures_dir):
    assert sorted(p.stem for p in fixtures_dir.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", GOLDEN)
def test_report_events_are_the_wire_events(fixtures_dir, name):
    report = run(Scenario.load(fixtures_dir / f"{name}.json"))
    doc = report.to_json_dict()
    wire = [json.loads(ref.to_json_line(ev)) for ev in report.log]
    assert json.dumps(doc, indent=2) == json.dumps({**doc, "events": wire}, indent=2)


# -- the fast path: a file made only of the writer's own lines --------


def refuse_line_path(mp):
    """Make ``_scan_line`` raise: it reads every line of a file that is not
    made only of lines the writer emits, so a read then passes only on
    the one-pattern scan of the whole file."""
    def refuse(*args, **kwargs):
        raise AssertionError("line-by-line path taken")
    mp.setattr(ledger, "_scan_line", refuse)


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_logs_read_on_the_fast_path(fixtures_dir, monkeypatch, name):
    path = fixtures_dir / f"{name}.jsonl"
    expected = ref.read_jsonl(path).events
    refuse_line_path(monkeypatch)
    assert EventLog.read_jsonl(path).events == expected


def test_writer_files_read_on_the_fast_path(fixtures_dir, tmp_path, monkeypatch):
    # every golden log, and a log as write_jsonl writes it
    written = tmp_path / "written.jsonl"
    run(Scenario.load(fixtures_dir / "ddra_defensive_cycle.json")).log.write_jsonl(written)
    paths = [*sorted(fixtures_dir.glob("*.jsonl")), written]
    expected = [ref.read_jsonl(path).events for path in paths]
    assert len(paths) == len(GOLDEN) + 1
    refuse_line_path(monkeypatch)
    assert [EventLog.read_jsonl(path).events for path in paths] == expected


# the text the fast path takes: printable ASCII without '"' or '\'
wire_texts = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                   blacklist_characters='"\\'), max_size=10)
wire_ints = st.integers(min_value=-(10**18) + 1, max_value=10**18 - 1)


@given(st.lists(st.tuples(wire_ints, st.sampled_from(sorted(EVENT_KINDS)),
                          wire_texts, wire_texts, wire_ints, wire_texts,
                          wire_ints), max_size=8))
@settings(max_examples=100, deadline=None)
def test_ascii_logs_read_on_the_fast_path(tmp_path_factory, rows):
    log = EventLog()
    for seq, row in enumerate(rows, start=1):
        log.append(RewardEvent(seq, *row))
    path = tmp_path_factory.getbasetemp() / "fast.jsonl"
    log.write_jsonl(path)
    with pytest.MonkeyPatch.context() as mp:
        refuse_line_path(mp)
        assert EventLog.read_jsonl(path).events == log.events


def outcome(read, path):
    """The events ``read`` gives for the file, or its exception."""
    try:
        return read(path).events
    except Exception as exc:
        return type(exc), str(exc)


FIRST = line()
SECOND = line(seq=2, day=3, kind="settle", amount_minor=5)
EDGE = {
    "canonical": [FIRST, SECOND],
    "extra-spaces": [FIRST.replace(": ", ":  "), "  " + SECOND + "\t"],
    "no-spaces": [json.dumps(json.loads(FIRST), separators=(",", ":"))],
    "reordered-keys": [json.dumps(dict(reversed(json.loads(FIRST).items())))],
    "unicode-escapes": [FIRST.replace('"t1"', '"\\u0041\\u00e9"')],
    "escaped-quote-and-backslash": [FIRST.replace('"t1"', '"a\\"b\\\\c"')],
    "minus-zero": [line(day="@").replace('"@"', "-0")],
    "leading-zero": [line(day="@").replace('"@"', "07")],
    "non-ascii-digit": [line(day="@").replace('"@"', "1\u0667")],
    "18-digit-ints": [line(day=10**18 - 1, amount_minor=-(10**18 - 1))],
    "19-digit-ints": [line(day=10**18, amount_minor=-(10**18))],
    "true-in-amount": [line(amount_minor=True)],
    "float-in-period": [line(period=1.5)],
    "string-in-seq": [line(seq="1")],
    "unknown-kind": [FIRST, line(seq=2, kind="refund-request")],
    "kind-prefix": [line(kind="refund-")],
    "seq-gap": [FIRST, line(seq=3)],
    "crlf": [FIRST + "\r", SECOND + "\r"],
    "cr": [FIRST + "\r" + SECOND],
    "raw-u2028-and-nel": [FIRST.replace('"t1"', '"t\u2028x\x85y"')],
    "raw-control": [FIRST.replace('"t1"', '"t\x1cx"')],
    "raw-delete": [FIRST.replace('"t1"', '"t\x7fx"')],
    "blank-lines": ["", "   ", FIRST, "\t", "\x1c", SECOND, ""],
    "empty-file": [],
    "blank-lines-only": ["", "   ", "\t"],
}


@pytest.mark.parametrize("lines", EDGE.values(), ids=EDGE.keys())
def test_reader_agrees_with_reference_on_edge_lines(tmp_path, lines):
    path = tmp_path / "edge.jsonl"
    path.write_bytes("".join(text + "\n" for text in lines).encode("utf-8"))
    assert outcome(EventLog.read_jsonl, path) == outcome(ref.read_jsonl, path)


# -- where a file leaves the fast path ---------------------------------


def canonical(count):
    """``count`` lines as the writer emits them, seqs 1..count."""
    return [RewardEvent(seq, seq, "purchase", f"t{seq}", "u1", 100 * seq, "G",
                        0).to_json_line() for seq in range(1, count + 1)]


def assert_reads_like_reference(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert outcome(EventLog.read_jsonl, path) == outcome(ref.read_jsonl, path)


# a line of a canonical file made non-canonical, still readable or not
RESHAPE = {
    "no-spaces": lambda text: json.dumps(json.loads(text), separators=(",", ":")),
    "surrounding-space": lambda text: " " + text + "\t",
    "escaped-text": lambda text: text.replace('"u1"', '"\\u0075\\u0031"'),
    "broken": lambda text: text[:-1],
    "unknown-kind": lambda text: text.replace('"purchase"', '"mystery"'),
}


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("reshape", RESHAPE.values(), ids=RESHAPE.keys())
def test_one_non_canonical_line_reads_like_the_reference(tmp_path, reshape, at):
    lines = canonical(5)
    lines[at] = reshape(lines[at])
    assert_reads_like_reference(tmp_path / "one.jsonl",
                                "".join(text + "\n" for text in lines))


@pytest.mark.parametrize("reshape", [str, *RESHAPE.values()],
                         ids=["canonical", *RESHAPE.keys()])
@pytest.mark.parametrize("count", [1, 3])
def test_no_final_newline_reads_like_the_reference(tmp_path, reshape, count):
    # the unended last line canonical or not
    lines = canonical(count)
    lines[-1] = reshape(lines[-1])
    assert_reads_like_reference(tmp_path / "open.jsonl", "\n".join(lines))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("seq", [lambda k: k + 1, lambda k: k - 1],
                         ids=["skip", "repeat"])
def test_seq_gap_at_line_k_reads_like_the_reference(tmp_path, seq, k):
    lines = canonical(4)
    lines[k - 1] = lines[k - 1].replace(f'"seq": {k},', f'"seq": {seq(k)},')
    assert_reads_like_reference(tmp_path / "gap.jsonl",
                                "".join(text + "\n" for text in lines))


def test_reader_agrees_with_reference_on_a_long_integer(tmp_path):
    # past the digit limit the reference lets int()'s ValueError escape
    # and the reader names the line; with no limit both read the number
    path = tmp_path / "long.jsonl"
    path.write_text(line(amount_minor="@").replace('"@"', "9" * 4301) + "\n")
    with pytest.raises(ParseError) as got:
        EventLog.read_jsonl(path)
    assert str(got.value) == "line 1: JSON holds an integer of more than 4300 digits"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        events = EventLog.read_jsonl(path).events
        assert events == ref.read_jsonl(path).events
        assert events[0].amount_minor == int("9" * 4301)
    finally:
        sys.set_int_max_str_digits(limit)


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    # a lone \r ends a line, as it does in text-mode reading
    path = tmp_path / "bad.jsonl"
    path.write_bytes(FIRST.encode() + b"\r" + SECOND.encode() + b"\r\n\xff\n")
    with pytest.raises(ParseError) as got:
        EventLog.read_jsonl(path)
    assert str(got.value) == "line 3: not valid UTF-8"


@pytest.mark.parametrize("second,key,ref_error", [
    (SECOND[:-1] + ', "amount_minor": 10000}', "amount_minor", None),
    (SECOND[:-1] + ', "note": {"x": 1, "x": 2}}', "x",
     "line 2: unknown field 'note'"),
], ids=["wire-field", "nested-object"])
def test_reader_refuses_a_repeated_key(tmp_path, second, key, ref_error):
    # json.loads keeps a repeated key's last value: the reference reader
    # accepts a repeated wire field, and refuses the nested object only
    # for the unknown field that holds it
    path = tmp_path / "repeated.jsonl"
    path.write_text(FIRST + "\n" + second + "\n")
    if ref_error is None:
        assert len(ref.read_jsonl(path).events) == 2
    else:
        with pytest.raises(ParseError, match=f"^{ref_error}$"):
            ref.read_jsonl(path)
    with pytest.raises(ParseError) as got:
        EventLog.read_jsonl(path)
    assert str(got.value) == f"line 2: JSON repeats key {key!r}"


def test_reader_runs_with_the_collector_paused(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text(FIRST + "\n" + SECOND + "\n")
    seen = []
    read_text = ledger._read_text

    def spy(path):
        seen.append(gc.isenabled())
        return read_text(path)

    monkeypatch.setattr(ledger, "_read_text", spy)
    assert len(EventLog.read_jsonl(path)) == 2
    assert seen == [False]
    assert gc.isenabled()


def test_reader_turns_the_collector_on_after_a_parse_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(FIRST + "\n{}\n")
    with pytest.raises(ParseError):
        EventLog.read_jsonl(path)
    assert gc.isenabled()


def test_reader_leaves_the_collector_off_for_a_caller_that_turned_it_off(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(FIRST + "\n" + SECOND + "\n")
    gc.disable()
    try:
        EventLog.read_jsonl(path)
        assert not gc.isenabled()
    finally:
        gc.enable()
