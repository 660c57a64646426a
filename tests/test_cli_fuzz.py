"""Fuzz of the command-line boundary.

``main`` runs ``simulate`` and ``check`` on the fixture scenarios,
configs and golden logs with one field (or a whole object, line or
list) replaced by an arbitrary JSON value.  Whatever the input, it must
return 0, 1 or 2 and raise nothing: bad input is an ``error:`` line and
exit 1, never a traceback.

Integers stay within a few hundred, because ``run`` walks every day up
to one period past the last intent.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from rewardsim.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main

NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-400, 400)
    | st.floats(-400, 400, allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)


def paths(doc, prefix=()):
    """Every place in ``doc``: the document itself, then each member."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


@st.composite
def cases(draw, load):
    """(fixture name, path, value): one place of a fixture document."""
    name = draw(st.sampled_from(NAMES))
    doc = load(name)
    path = draw(st.sampled_from(list(paths(doc))))
    return name, path, draw(json_values)


def scenario(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def config(name):
    return scenario(name)["config"]


def log_lines(name):
    text = (FIXTURES / f"{name}.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


FUZZ = settings(max_examples=150, deadline=None, derandomize=True)
EXITS = (EXIT_OK, EXIT_INPUT, EXIT_VIOLATION)


@FUZZ
@given(case=cases(scenario), as_json=st.booleans())
@example(case=("walkthrough", ("config",), []), as_json=False)
@example(case=("walkthrough", ("config", "reward_rate_bps"), []), as_json=False)
@example(case=("walkthrough", ("config", "period_length_days"), 30.0), as_json=True)
@example(case=("walkthrough", ("config", "grace_days"), "7"), as_json=False)
@example(case=("walkthrough", ("auto_redeem",), "no"), as_json=False)
def test_simulate_never_raises(tmp_path_factory, case, as_json):
    name, path, value = case
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = ["simulate", "--scenario",
            write_json(tmp / "scenario.json", replaced(scenario(name), path, value)),
            "--log-out", str(tmp / "log.jsonl")]
    if as_json:
        argv += ["--format", "json"]
    assert exit_code(argv) in EXITS


@FUZZ
@given(case=cases(config), delta=st.sampled_from([None, 0, 30]))
@example(case=("walkthrough", (), []), delta=None)
@example(case=("walkthrough", ("monthly_cap_minor",), 5), delta=0)
@example(case=("walkthrough", ("reward_rate_bps", "GROCERY"), 0.5), delta=None)
def test_check_never_raises_on_any_config(tmp_path_factory, case, delta):
    name, path, value = case
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = ["check", "--log", str(FIXTURES / f"{name}.jsonl"),
            "--config", write_json(tmp / "config.json",
                                   replaced(config(name), path, value))]
    if delta is not None:
        argv += ["--delta-days", str(delta)]
    assert exit_code(argv) in EXITS


@FUZZ
@given(case=cases(log_lines))
def test_check_never_raises_on_any_log(tmp_path_factory, case):
    name, path, value = case
    tmp = tmp_path_factory.mktemp("fuzz")
    lines = replaced(log_lines(name), path, value)
    log_path = tmp / "log.jsonl"
    if isinstance(lines, list):
        log_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    else:
        log_path.write_text(json.dumps(lines) + "\n")
    argv = ["check", "--log", str(log_path),
            "--config", write_json(tmp / "config.json", config(name))]
    assert exit_code(argv) in EXITS
