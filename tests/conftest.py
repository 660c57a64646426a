import gc
import pathlib
from fractions import Fraction

import pytest

from rewardsim import EngineConfig

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic garbage collector off, and
    turn it back on so the tests after it run as they would alone."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def grocery_config() -> EngineConfig:
    return EngineConfig(
        reward_rate={"GROCERY": Fraction(5, 100)},
        monthly_cap={"GROCERY": 50_00},
        b_min=0,
        grace_days=7,
        period_length_days=30,
        variant="defensive-instant",
    )


@pytest.fixture
def cycle_config(grocery_config) -> EngineConfig:
    cfg = grocery_config
    return EngineConfig(
        reward_rate=dict(cfg.reward_rate),
        monthly_cap=dict(cfg.monthly_cap),
        b_min=cfg.b_min,
        grace_days=cfg.grace_days,
        period_length_days=cfg.period_length_days,
        variant="defensive-cycle",
    )
