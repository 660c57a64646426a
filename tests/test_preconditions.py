"""The engine's documented preconditions hold on every call a run makes.

The engine checks none of its preconditions: ``harness.Simulation``
refuses a bad intent before any engine call.  Here the five engine
functions whose docstrings state preconditions are replaced, on the
``engine`` module, by wrappers that assert them.  The harness looks each
up there, and so does ``statement_cycle_reconcile``, so every call of a
run goes through a wrapper.  A scenario the harness refuses is fine; an
engine call that breaks a precondition fails the test.
"""

import contextlib
import inspect
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings

from rewardsim import Scenario, ScenarioInvalid, engine, run
from rewardsim.adversary import BATTERY, build_ddra_scenario
from rewardsim.issuers import VARIANTS
from rewardsim.ledger import PART_REF, PENDING, SETTLED
from test_clock import scenarios, under

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.json"))
ADJUSTABLE = (SETTLED, PART_REF)


def _one_record(a):
    # the harness hands the engine one record per transaction: its own
    return a["records"][a["txn"].id] is a["txn"]


def _settlement(a):
    txn = a["txn"]
    return (_one_record(a) and txn.status is PENDING
            and txn.reward_original == 0
            and txn.total_refunded == a["presettle_refunded"] < txn.amount)


def _refund(a):
    txn, x = a["txn"], a["x"]
    return (_one_record(a) and txn.status in ADJUSTABLE and x > 0
            and txn.total_refunded + x <= txn.amount)


def _chargeback(a):
    # such a transaction has principal left, so the claw is never of 0
    txn = a["txn"]
    return (_one_record(a) and txn.status in ADJUSTABLE
            and txn.total_refunded < txn.amount)


def _gate(a):
    return a["y"] > 0


GATE = engine.can_redeem  # unpatched, so redeem's check is not counted


def _redeem(a):
    return a["y"] > 0 and GATE(a["ledger"], a["y"], a["today"], a["config"]).allowed


# each wrapped function's precondition, over its arguments by name
PRECONDITIONS = {
    "reward_on_settlement": _settlement,
    "reward_on_refund": _refund,
    "reward_on_chargeback": _chargeback,
    "can_redeem": _gate,
    "redeem": _redeem,
}


@contextlib.contextmanager
def asserted_preconditions():
    """Patch the engine; yields a Counter of the calls each wrapper saw."""
    calls = Counter()

    def wrap(name, fn, holds):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            assert holds(bound.arguments), f"{name} precondition: {bound.arguments}"
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name, holds in PRECONDITIONS.items():
            mp.setattr(engine, name, wrap(name, getattr(engine, name), holds))
        yield calls


def run_or_refuse(scenario):
    try:
        run(scenario, daily_snapshots=False)
    except ScenarioInvalid:
        pass


def test_fixtures_and_attack_batteries_keep_every_precondition():
    with asserted_preconditions() as calls:
        for path in FIXTURES:
            run_or_refuse(Scenario.load(path))
        for variant in sorted(VARIANTS):
            for timing, fraction in BATTERY:
                run_or_refuse(build_ddra_scenario(variant, timing=timing,
                                                  refund_fraction=fraction))
    # every wrapper was reached, so none checks nothing
    assert set(calls) == set(PRECONDITIONS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_random_scenarios_keep_every_precondition_under_every_variant(scenario):
    with asserted_preconditions():
        for variant in sorted(VARIANTS):
            run_or_refuse(under(scenario, variant))


def test_a_broken_precondition_fails():
    # the wrappers do assert: a direct call that breaks one is caught
    with asserted_preconditions(), pytest.raises(AssertionError):
        engine.can_redeem(None, 0, 0, None)
