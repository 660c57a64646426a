"""Audit golden: what ``simulate`` and ``check`` print on every fixture.

Each fixture that has a golden log goes through ``rewardsim.cli.main``
three times: ``simulate`` in text, ``check`` with the variant's default
consistency window, and ``check --delta-days 0``; ``check`` reads the
golden log under the config of the fixture's scenario.  Every command's
stdout and exit code must match ``tests/fixtures/audit_golden.txt``
byte for byte.  Each entry is a ``$ rewardsim ...`` line, the command's
stdout, then ``exit N``.

Regenerate the golden, only for an output changed on purpose, with

    PYTHONPATH=src python tests/test_audit_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from rewardsim.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "audit_golden.txt"


def commands(tmp: pathlib.Path):
    """(shown command, argv) for the three commands of every fixture."""
    for log in sorted(FIXTURES.glob("*.jsonl")):
        name = log.stem
        scenario = FIXTURES / f"{name}.json"
        config = tmp / f"{name}.config.json"
        config.write_text(json.dumps(
            json.loads(scenario.read_text(encoding="utf-8"))["config"]),
            encoding="utf-8")
        simulate = ["simulate", "--scenario"]
        check = ["check", "--log"]
        yield [*simulate, scenario.name], [*simulate, str(scenario)]
        for extra in ([], ["--delta-days", "0"]):
            yield ([*check, log.name, "--config", config.name, *extra],
                   [*check, str(log), "--config", str(config), *extra])


def transcript() -> str:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for shown, argv in commands(pathlib.Path(tmp)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            entries.append(f"$ rewardsim {' '.join(shown)}\n{out.getvalue()}exit {code}\n")
    return "".join(entries)


def test_simulate_and_check_match_the_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(transcript(), encoding="utf-8")
    sys.exit(0)
