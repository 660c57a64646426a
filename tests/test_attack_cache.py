"""The attack builder's caches change no scenario and no refusal.

``rewardsim.adversary.attack_config`` holds one config per preset for
the process, and ``build_ddra_scenario`` takes its events from the last
``len(BATTERY)`` schedules built.  ``reference_attack`` builds both anew
on every call, as the builder did before it cached.  These tests run
every preset over the battery against it, and check that an argument
equal in value to a cached one but of another type (``10000.0`` or
``True`` for ``10000`` or ``1``) is not served the cached entry.
"""

import pytest

import reference_attack as ref
from rewardsim import ConfigError, Scenario, ScenarioEvent, ScenarioInvalid, run
from rewardsim import ledger
from rewardsim.adversary import BATTERY, attack_config, build_ddra_scenario, run_ddra
from rewardsim.issuers import VARIANTS

SIZES = (1, 101, 100_00, 2000_00)


def log_bytes(scenario, path) -> bytes:
    run(scenario).log.write_jsonl(path)
    return path.read_bytes()


@pytest.mark.parametrize("cycles", [1, 24])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_cached_builder_agrees_with_reference(tmp_path, variant, size, cycles):
    for timing, fraction in BATTERY:
        kw = dict(timing=timing, purchase_minor=size, cycles=cycles,
                  refund_fraction=fraction)
        try:
            expected = ref.build_ddra_scenario(variant, **kw)
        except ValueError as exc:
            # half of one minor unit refunds nothing
            with pytest.raises(ValueError) as refused:
                build_ddra_scenario(variant, **kw)
            assert str(refused.value) == str(exc)
            continue
        # the second build of each schedule comes from the cache
        for _ in range(2):
            built = build_ddra_scenario(variant, **kw)
            assert built == expected
            assert built.to_json_dict() == expected.to_json_dict()
            assert (log_bytes(built, tmp_path / "built.jsonl")
                    == log_bytes(expected, tmp_path / "expected.jsonl"))
            built.save(tmp_path / "scenario.json")
            assert Scenario.load(tmp_path / "scenario.json") == built
            # a change to one scenario's events reaches no later build
            built.events.pop()
            built.events.insert(0, ScenarioEvent(0, "purchase", "x", 1, "GROCERY"))


@pytest.fixture
def warm():
    """Caches holding the int entries that an untyped key of the tests
    below would hit: four same-cycle schedules, one per BATTERY slot."""
    for purchase in (1, 100_00):
        for cycles in (1, 12):
            run_ddra("A", purchase_minor=purchase, cycles=cycles)


@pytest.mark.parametrize("purchase", [10000.0, True], ids=["float", "bool"])
def test_a_mistyped_amount_is_refused_after_an_equal_int(warm, purchase):
    message = f"event 0: amount_minor must be an integer, got {purchase!r}"
    for build in (ref.build_ddra_scenario, build_ddra_scenario):
        with pytest.raises(ScenarioInvalid) as refused:
            run(build("A", purchase_minor=purchase))
        assert str(refused.value) == message
    with pytest.raises(ScenarioInvalid) as refused:
        run_ddra("A", purchase_minor=purchase)
    assert str(refused.value) == message


class Name(str):
    pass


@pytest.mark.parametrize("variant", [Name("A"), ["A"], None, "Z"],
                         ids=["str-subclass", "list", "none", "unknown"])
def test_a_refused_variant_is_refused_on_every_call(warm, variant):
    with pytest.raises(ConfigError) as expected:
        ref.attack_config(variant)
    assert str(expected.value) == (
        f"variant must be one of {sorted(VARIANTS)}, got {variant!r}")
    for call in (attack_config, build_ddra_scenario, run_ddra) * 2:
        with pytest.raises(ConfigError) as refused:
            call(variant)
        assert str(refused.value) == str(expected.value)


def test_a_bool_cycle_count_runs_one_cycle(warm):
    built = build_ddra_scenario("A", cycles=True)
    assert built == ref.build_ddra_scenario("A", cycles=True)
    assert [e.kind for e in built.events] == ["purchase", "refund"]
    assert run_ddra("A", cycles=True).value_extracted == 500


def test_one_config_per_preset_kept_out_of_the_loaded_table():
    configs = [attack_config(name) for name in sorted(VARIANTS)]
    assert all(attack_config(name) is config
               for name, config in zip(sorted(VARIANTS), configs))
    assert attack_config("A") is attack_config("A")
    assert build_ddra_scenario("A").config is attack_config("A")
    assert configs == [ref.attack_config(name) for name in sorted(VARIANTS)]
    # loaded configs die with their last holder; the attack configs never do
    live = {id(config) for config in ledger._LIVE_CONFIGS.values()}
    assert not live & {id(config) for config in configs}
