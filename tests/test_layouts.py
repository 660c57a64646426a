"""Output layouts pinned byte for byte, and the one event-kind vocabulary.

``tests/fixtures/reports/<name>.json`` is the stdout of ``simulate
--format json`` on each scenario fixture, and each scenario fixture is
the bytes ``Scenario.save`` writes for it.  Both were written before the
records' JSON layouts were derived from their dataclass fields, so a
change of key, key order or value shows here.

``tests/fixtures/attack_golden.txt`` is the stdout and exit code of
``attack`` for every variant and timing, written before the float
warning was read from the RRC restore lags.
"""

import contextlib
import io

import pytest

import reference_invariants
from rewardsim import Scenario, harness, ledger
from rewardsim.adversary import CONTROL, CROSS_CYCLE, SAME_CYCLE
from rewardsim.cli import main
from rewardsim.issuers import VARIANTS

from conftest import FIXTURES

NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))

EXIT_CODES = {
    "close_refunds_cycle": 2,
    "cross_cycle_B": 2,
    "ddra_A": 2,
    "ddra_F": 2,
    "ddra_defensive_cycle": 2,
    "delayed_refund_instant": 0,
    "empty": 0,
    "rrc_blame_F": 2,
    "rrc_blame_cycle": 2,
    "walkthrough": 0,
}


def test_every_fixture_has_a_report():
    assert NAMES == sorted(EXIT_CODES)
    assert sorted(p.stem for p in (FIXTURES / "reports").glob("*.json")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_json_report_matches_golden(capsys, name):
    code = main(["simulate", "--scenario", str(FIXTURES / f"{name}.json"),
                 "--format", "json"])
    out = capsys.readouterr().out
    assert out == (FIXTURES / "reports" / f"{name}.json").read_text()
    assert code == EXIT_CODES[name]


@pytest.mark.parametrize("name", NAMES)
def test_scenario_save_writes_the_fixture_bytes(tmp_path, name):
    path = FIXTURES / f"{name}.json"
    Scenario.load(path).save(tmp_path / "saved.json")
    assert (tmp_path / "saved.json").read_bytes() == path.read_bytes()


def attack_transcript() -> str:
    """``attack`` at the default purchase and 12 cycles: every variant
    and timing, each run's command, stdout and exit code."""
    parts = []
    for variant in sorted(VARIANTS):
        for timing in (SAME_CYCLE, CROSS_CYCLE, CONTROL):
            argv = ["attack", "--issuer", variant, "--timing", timing,
                    "--cycles", "12"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            parts.append(f"$ rewardsim {' '.join(argv)}\n{out.getvalue()}"
                         f"exit {code}\n")
    return "\n".join(parts)


def test_attack_output_matches_golden():
    assert attack_transcript() == (FIXTURES / "attack_golden.txt").read_text()


def test_one_event_kind_vocabulary():
    assert ledger.EVENT_KINDS == {
        "purchase", "refund-posted", "chargeback-posted", "redeem-request",
        "settle", "reconcile-settle", "refund", "chargeback",
        "reconcile-clawback", "redeem", "hold-set",
    }
    assert set(harness._INTENT_TO_SCENARIO) == ledger.INTENT_KINDS
    # the reference checkers keep their own copies of the role sets
    for name in ("PRINCIPAL_KINDS", "REVERSAL_KINDS", "GRANT_KINDS", "CLAW_KINDS"):
        assert getattr(reference_invariants, name) == getattr(ledger, name)
    assert reference_invariants.REWARD_DELTA_KINDS == ledger.REWARD_KINDS | {"redeem"}
