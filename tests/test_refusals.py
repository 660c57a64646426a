"""Refusal golden: what every input loader answers to a malformed record.

Deterministic ``random.Random`` mutations of every fixture scenario, of
its config and of one golden log go through ``rewardsim.cli.main``:
scenarios through ``simulate``, configs and logs through ``check``.  A
mutation drops a key, adds a typo key, puts ``true``, ``1.5``, ``"1"``,
``null`` or ``-1`` in a field, puts a lone surrogate in a text field,
names an unknown kind, or makes two of these faults at once.  Each
case's exit code and ``error:`` line must match
``tests/fixtures/refusals.txt`` byte for byte.  Configs built with
``EngineConfig(...)`` and scenarios run with ``run(Scenario(...))`` in
Python record the exception they raise.

Regenerate the golden, only for a refusal changed on purpose, with

    PYTHONPATH=src python tests/test_refusals.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

from rewardsim import EngineConfig, Scenario, ScenarioEvent, run
from rewardsim.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "refusals.txt"
GOLDEN_LOG = "walkthrough"

SURROGATE = "\ud800"
# each value mutation: its label and the value it puts in place of ``old``
VALUES = {
    "true": lambda old: True,
    "1.5": lambda old: 1.5,
    '"1"': lambda old: "1",
    "null": lambda old: None,
    "-1": lambda old: -1,
    "surrogate": lambda old: (old if type(old) is str else "") + SURROGATE,
}
OPS = ("drop", "typo", *VALUES)
RANK = {"typo": 0, "drop": 2}
# single mutations kept per input, and double ones drawn of each sort
SINGLES = 80
DOUBLES = 30


def typo(key: str) -> str:
    """``key`` with its second and third characters swapped."""
    return key[0] + key[2] + key[1] + key[3:] if len(key) > 2 else key + key


def leaf_paths(doc, prefix=()):
    """The path of every key of every object in ``doc``, parents first."""
    items = (doc.items() if type(doc) is dict
             else enumerate(doc) if type(doc) is list else ())
    for key, value in items:
        path = (*prefix, key)
        if type(key) is str:
            yield path
        yield from leaf_paths(value, path)


def label(path, op) -> str:
    name = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path)
    return f"{name.lstrip('.')}:{op}"


def apply(doc, path, op):
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if op == "drop":
        del target[key]
    elif op == "typo":
        target[typo(key)] = target[key]
    else:
        target[key] = VALUES[op](target[key]) if op in VALUES else op


def mutations(doc, seed: str, extra=()):
    """(label, mutated copy) for a sample of the single mutations of
    ``doc``, then for pairs of them: on unrelated paths, in one record
    drawn at random, and in ``doc``'s first record."""
    rng = random.Random(seed)
    singles = [(path, op) for path in leaf_paths(doc) for op in OPS]
    singles += list(extra)
    records = {}
    for one in singles:
        records.setdefault(one[0][:-1], []).append(one)
    picked = singles if len(singles) <= SINGLES else rng.sample(singles, SINGLES)
    cases = [[one] for one in picked]
    while len(cases) < len(picked) + DOUBLES:
        (p1, o1), (p2, o2) = rng.sample(singles, 2)
        if p1[:len(p2)] != p2 and p2[:len(p1)] != p1:
            cases.append([(p1, o1), (p2, o2)])
    first = next(iter(records))
    for i in range(DOUBLES):
        record = records[first if i % 2 else rng.choice(list(records))]
        # a typo copies the value first and a drop comes last, so a key
        # can be both renamed and changed
        cases.append(sorted(rng.sample(record, 2), key=lambda one: RANK.get(one[1], 1)))
    for case in cases:
        mutated = copy.deepcopy(doc)
        for path, op in case:
            apply(mutated, path, op)
        yield " + ".join(label(path, op) for path, op in case), mutated


def kind_and_day_faults(doc, key):
    """An unknown kind and a negative day on each event of ``doc[key]``."""
    for i, _ in enumerate(doc[key]):
        yield (key, i, "kind"), "refnud"
        yield (key, i, "day"), -3


def call_main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().strip().replace("\n", "\\n")


def write_json(path: pathlib.Path, doc) -> str:
    # ASCII escapes keep a lone surrogate writable as JSON text
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def cli_cases(tmp: pathlib.Path):
    for src in sorted(FIXTURES.glob("*.json")):
        name = src.stem
        scenario = json.loads(src.read_text(encoding="utf-8"))
        for what, mutated in mutations(scenario, f"scenario {name}",
                                       kind_and_day_faults(scenario, "events")):
            path = write_json(tmp / "scenario.json", mutated)
            yield f"simulate {name} {what}", ["simulate", "--scenario", path]
        config = scenario["config"]
        log = str(FIXTURES / f"{name}.jsonl")
        for what, mutated in mutations(config, f"config {name}"):
            path = write_json(tmp / "config.json", mutated)
            yield f"check-config {name} {what}", ["check", "--log", log,
                                                  "--config", path]
        # a category key that is not UTF-8 is accepted as it is
        accepted = copy.deepcopy(config)
        accepted["reward_rate_bps"][SURROGATE] = 100
        path = write_json(tmp / "config.json", accepted)
        yield (f"check-config {name} reward_rate_bps.<surrogate>:add",
               ["check", "--log", log, "--config", path])
    src = FIXTURES / f"{GOLDEN_LOG}.jsonl"
    lines = [json.loads(line) for line in src.read_text().splitlines()]
    config = write_json(tmp / "log_config.json", json.loads(
        (FIXTURES / f"{GOLDEN_LOG}.json").read_text())["config"])
    extra = [((i, "kind"), "setle") for i in range(len(lines))]
    for what, mutated in mutations(lines, f"log {GOLDEN_LOG}", extra):
        path = tmp / "log.jsonl"
        path.write_text("".join(json.dumps(ev) + "\n" for ev in mutated),
                        encoding="utf-8")
        yield (f"check-log {GOLDEN_LOG} {what}",
               ["check", "--log", str(path), "--config", config])


RATES = {"GROCERY": Fraction(5, 100)}
CONFIG_CASES = [
    {"b_min": True},
    {"b_min": -1},
    {"grace_days": 1.5},
    {"grace_days": 30},
    {"period_length_days": "30"},
    {"period_length_days": 0},
    {"delivery_delay_days": None},
    {"delivery_delay_days": -1},
    {"variant": 1},
    {"variant": "Z"},
    {"reward_rate": None},
    {"reward_rate": {"GROCERY": 0.05}},
    {"reward_rate": {"GROCERY": Fraction(3, 2)}},
    {"reward_rate": {1: Fraction(1, 2)}},
    {"reward_rate": {SURROGATE: Fraction(1, 2)}},
    {"monthly_cap": []},
    {"monthly_cap": {"GROCERY": True}},
    {"monthly_cap": {"GROCERY": -5}},
    {"monthly_cap": {None: 5}},
    {"b_min": True, "grace_days": "7"},
    {"grace_days": 1.5, "variant": "Z"},
    {"reward_rate": {"GROCERY": 0.05}, "monthly_cap": {"GROCERY": True}},
    {"monthly_cap": {"GROCERY": "1"}, "delivery_delay_days": True},
    {"period_length_days": None, "variant": None, "b_min": 1.5},
]
EVENT = {"day": 1, "kind": "purchase", "txn_id": "t1", "amount_minor": 100,
         "category": "GROCERY"}
EVENT_CASES = [
    {"day": True},
    {"day": 1.5},
    {"day": "1"},
    {"day": -3},
    {"amount_minor": None},
    {"amount_minor": True},
    {"kind": None},
    {"kind": "refnud"},
    {"kind": "purchase" + SURROGATE},
    {"txn_id": 1},
    {"txn_id": "t" + SURROGATE},
    {"txn_id": "té"},
    {"category": 1.5},
    {"category": SURROGATE},
    {"category": "ÉPICERIE"},
    {"day": True, "amount_minor": "1"},
    {"kind": SURROGATE, "txn_id": 5},
    {"txn_id": SURROGATE, "category": None},
    {"kind": "refnud", "day": -3},
    {"day": -3, "txn_id": None},
    {"kind": "refnud", "category": SURROGATE},
]


def exception_text(thunk) -> str:
    try:
        thunk()
    except Exception as exc:  # every refusal is recorded as it is
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def python_cases():
    for i, kwargs in enumerate(CONFIG_CASES):
        args = {"reward_rate": dict(RATES), **kwargs}
        yield (f"EngineConfig {i} {sorted(kwargs)}",
               exception_text(lambda: EngineConfig(**args)))
    config = EngineConfig(reward_rate=dict(RATES))
    for i, fields in enumerate(EVENT_CASES):
        # the faulty event comes after a clean one, so its index shows
        events = [ScenarioEvent(**EVENT), ScenarioEvent(**{**EVENT, **fields})]
        scenario = Scenario(label="py", config=config, events=events)
        yield (f"run {i} {sorted(fields)}",
               exception_text(lambda: run(scenario, daily_snapshots=False)))


def refusal_lines() -> list:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in cli_cases(pathlib.Path(tmp)):
            code, err = call_main(argv)
            lines.append(f"{case}\t{code}\t{err}")
    for case, text in python_cases():
        lines.append(f"{case}\t{text}")
    return [line.encode("ascii", "backslashreplace").decode("ascii")
            for line in lines]


def test_refusals_match_the_golden():
    want = GOLDEN.read_text(encoding="ascii").splitlines()
    assert refusal_lines() == want


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in refusal_lines()),
                      encoding="ascii")
    sys.exit(0)
