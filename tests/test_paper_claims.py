"""The claims ledger: one test per claim of the paper's abstract.

Each test asserts what the repository shows of its claim, through the
public API and the command line.  A claim the repository cannot show
yet is marked ``xfail(strict=True)``, with a reason that names the
ROADMAP items it waits on: the change that closes them makes the test
pass, and strict mode then fails the run until the marker goes.  So the
count of xfails here is the distance to the paper.  README's "Paper
claims" table has one row per test, and ``tests/test_readme.py`` checks
that the two agree.
"""

import contextlib
import importlib
import io
import json
import pathlib
from fractions import Fraction

import pytest

from rewardsim import EngineConfig, Scenario, check_rrc, integrity_series, run
from rewardsim.adversary import CROSS_CYCLE, SAME_CYCLE, run_battery, run_ddra
from rewardsim.cli import main
from rewardsim.issuers import FAIL, PARTIAL, PASS, classify, get_variant
from rewardsim.ledger import LEGAL_TRANSITIONS, PENDING, SETTLED
from test_clock import under

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def label(variant: str) -> str:
    return classify(get_variant(variant), run_battery(variant))


def cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_issuer_a_never_adjusts_so_the_double_dip_is_deterministic():
    # every cycle's $5.00 survives its refund, under either timing, and
    # a second run extracts the same to the cent
    for timing in (SAME_CYCLE, CROSS_CYCLE):
        first, again = run_ddra("A", timing), run_ddra("A", timing)
        assert (first.redeemed_minor, first.value_extracted) == (6000, 6000)
        assert first.report.log.events == again.report.log.events
    assert label("A") == FAIL


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "no field models the merchant return window, so B's gap shows only as "
    "cross-cycle timing (ROADMAP item 10)"))
def test_issuer_b_redeems_before_the_return_window_closes():
    assert run_ddra("B", CROSS_CYCLE).value_extracted == 6000
    assert run_ddra("B", SAME_CYCLE).value_extracted == 0
    assert "return_window_days" in EngineConfig._fields


def test_issuer_f_lets_rewards_be_redeemed_before_the_clawback():
    # the reward is redeemed at settlement and clawed back only at the
    # close: the account ends in debt, and each refund waits 18 days
    same = run_ddra("F", SAME_CYCLE)
    assert (same.redeemed_minor, same.balance_minor) == (500, -500)
    assert set(same.restore_lags()) == {18}
    cross = run_ddra("F", CROSS_CYCLE)
    assert (cross.redeemed_minor, cross.balance_minor) == (1000, -1000)
    assert set(cross.restore_lags()) == {25}
    assert label("F") == PARTIAL


def test_issuers_c_d_e_keep_a_negative_balance_and_claw_back_proportionally():
    for variant in ("C", "D", "E"):
        assert label(variant) == PASS
        # the redeemed reward of a refunded purchase stays owed as debt
        assert run_ddra(variant, CROSS_CYCLE).balance_minor == -500
        # half refunded: exactly half of each $5.00 is clawed back
        half = run_ddra(variant, SAME_CYCLE, refund_fraction=Fraction(1, 2))
        assert half.value_extracted == 0
        assert half.redeemed_minor + half.balance_minor == 12 * 250
    # and rounding keeps no more than the rate: the two refunds of $0.90
    # leave no reward where half-even clawbacks left 2 cents
    scenario = under(Scenario.load(FIXTURES / "rounded_clawbacks.json"), "C")
    assert all(s.ok for s in run(scenario).snapshots)


@pytest.mark.xfail(strict=True, raises=ModuleNotFoundError, reason=(
    "only the status lifecycle is a table; the reward steps are code with "
    "no reference machine to compare (ROADMAP item 7)"))
def test_reward_engines_are_state_machines():
    assert (PENDING, SETTLED) in LEGAL_TRANSITIONS
    reference = importlib.import_module("reference_engine")
    for path in sorted(FIXTURES.glob("*.json")):
        scenario = Scenario.load(path)
        assert reference.run(scenario).events == run(scenario).log.events, path.name


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the checkers take each event's sign as given, so a forged log passes "
    "(ROADMAP item 14)"))
def test_two_integrity_invariants_judge_only_traces_the_machine_can_write(tmp_path):
    scenario = Scenario.load(FIXTURES / "ddra_A.json")
    report = run(scenario)
    # both invariants are there, and both fail the honest attack log
    assert not integrity_series(report.log, scenario.config)[-1].ok
    assert any(v.restored_day is None for v in check_rrc(report.log, 0, scenario.config))
    # a settle with a negative amount is no trace of the engine's
    forged = tmp_path / "forged.jsonl"
    lines = []
    for line in (FIXTURES / "ddra_A.jsonl").read_text().splitlines():
        event = json.loads(line)
        if event["kind"] == "settle":
            event["amount_minor"] = -event["amount_minor"]
        lines.append(json.dumps(event))
    forged.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads(
        (FIXTURES / "ddra_A.json").read_text())["config"]))
    code, _ = cli(["check", "--log", str(forged), "--config", str(config)])
    assert code != 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "no verdict names a vulnerability class, CWE or OWASP category "
    "(ROADMAP item 6)"))
def test_vulnerability_classes_map_to_cwe_and_owasp():
    code, out = cli(["attack", "--issuer", "A", "--timing", SAME_CYCLE])
    assert code == 2
    assert "CWE-" in out


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "defensive-cycle still redeems a reward whose clawback it owes "
    "(ROADMAP item 3)"))
def test_defensive_algorithms_close_the_loopholes():
    assert label("defensive-instant") == PASS
    assert label("defensive-cycle") == PASS
    assert run_ddra("defensive-cycle", CROSS_CYCLE).redeemed_minor == 0
