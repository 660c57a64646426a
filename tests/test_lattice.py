"""The policy lattice: every point of the five ``IssuerVariant`` fields.

A variant is its five policy fields, and a name is only a preset, a key
of ``issuers.VARIANTS``.  The fields give 2 x 3 x 2 x 2 x 2 = 48 points,
which run here by registering each under a test-only name for the
module's tests; the dict is restored afterwards.  Two points behave
alike exactly when they differ only in ``floors_at_zero`` under
``refund_adjustment`` none, where no clawback is left for the floor to
act on; so the 48 points form 40 behaviour classes.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from rewardsim import EngineConfig, Scenario, ScenarioEvent, run
from rewardsim.issuers import (
    ADJ_IMMEDIATE,
    ADJ_NONE,
    ADJ_STATEMENT_CLOSE,
    VARIANTS,
    IssuerVariant,
)
from test_clock import outcome, scenarios, under

POINTS = [IssuerVariant(*fields) for fields in itertools.product(
    (True, False), (ADJ_NONE, ADJ_IMMEDIATE, ADJ_STATEMENT_CLOSE),
    (False, True), (False, True), (False, True))]
NAMES = [f"lattice-{i}" for i in range(len(POINTS))]
# each pair of points that differ only in floors_at_zero under no adjustment
FLOOR_PAIRS = [(NAMES[i], NAMES[POINTS.index(p._replace(floors_at_zero=True))])
               for i, p in enumerate(POINTS)
               if p.refund_adjustment == ADJ_NONE and not p.floors_at_zero]


def behaviour_class(point: IssuerVariant) -> IssuerVariant:
    """The representative of ``point``'s class: the floor has nothing to
    act on when no refund is ever clawed back."""
    if point.refund_adjustment == ADJ_NONE:
        return point._replace(floors_at_zero=False)
    return point


def fixed_schedule(grace, period, delay, sweep, events):
    """A single-user scenario at rate 2500 bps on category G, no cap and
    ``b_min`` 1; ``events`` are ``(day, kind, txn_id, amount)`` in order."""
    config = EngineConfig(reward_rate={"G": Fraction(2500, 10000)}, b_min=1,
                          grace_days=grace, period_length_days=period,
                          delivery_delay_days=delay)
    return Scenario(label="lattice", config=config, auto_redeem=sweep, events=[
        ScenarioEvent(day, kind, txn_id, amount, "G" if kind == "purchase" else "")
        for day, kind, txn_id, amount in events])


# together these two separate every class of the lattice (a greedy cover
# over 400 seeded draws of ``test_clock.scenarios``)
SEPARATING = [
    fixed_schedule(1, 30, 9, True, [
        (52, "purchase", "t0", 41400), (81, "refund", "t0", 37494),
        (88, "refund", "t0", 1054), (70, "purchase", "t1", 17100),
        (106, "refund", "t1", 11975), (81, "refund", "t1", 278)]),
    fixed_schedule(0, 7, 3, False, [
        (77, "purchase", "t0", 17600), (90, "chargeback", "t0", 0),
        (113, "redeem-request", "", 1968)]),
]


@pytest.fixture(scope="module", autouse=True)
def lattice():
    presets = dict(VARIANTS)
    with pytest.MonkeyPatch.context() as mp:
        for name, point in zip(NAMES, POINTS):
            mp.setitem(VARIANTS, name, point)
        yield
    assert VARIANTS == presets


def test_the_lattice_has_48_points_and_40_classes():
    assert len(set(POINTS)) == 48
    assert len(FLOOR_PAIRS) == 8
    assert len({behaviour_class(p) for p in POINTS}) == 40
    # every preset is a point of it
    assert set(VARIANTS.values()) <= set(POINTS)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_a_floor_without_clawbacks_changes_nothing(scenario):
    for a, b in FLOOR_PAIRS:
        assert outcome(run, under(scenario, a)) == outcome(run, under(scenario, b)), (a, b)


def test_two_schedules_separate_every_class():
    # two points run alike on both schedules exactly when they share a
    # class, so the schedules give 40 distinct outcomes
    runs = [[outcome(run, under(scenario, name)) for scenario in SEPARATING]
            for name in NAMES]
    for i, j in itertools.combinations(range(len(POINTS)), 2):
        same_class = behaviour_class(POINTS[i]) == behaviour_class(POINTS[j])
        assert (runs[i] == runs[j]) == same_class, (POINTS[i], POINTS[j])
