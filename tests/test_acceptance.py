"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (straight to the real stdout so the
lines survive pytest's capture) and asserts the stated tolerance, which
is exact equality everywhere except the timed bulk-sequence check.
"""

import random
import sys
import time
from fractions import Fraction

from rewardsim import (
    EngineConfig,
    EventLog,
    Scenario,
    ScenarioEvent,
    Transaction,
    UserLedger,
    check_rrc,
    comparison_matrix,
    format_millions,
    format_usd,
    leakage_estimate,
    render_matrix,
    replay,
    reward_on_refund,
    reward_on_settlement,
    run,
    run_battery,
    run_ddra,
)
from rewardsim.invariants import net_reward_from_log, oracle_bound
from rewardsim.issuers import MATRIX_VARIANTS
from rewardsim.ledger import PART_REF, REFUNDED, SETTLED


def _verdict(number, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS", file=sys.__stdout__)


def grocery_config(variant="defensive-instant", **kw):
    defaults = dict(
        reward_rate={"GROCERY": Fraction(5, 100)},
        monthly_cap={"GROCERY": 5000},
        variant=variant,
    )
    defaults.update(kw)
    return EngineConfig(**defaults)


def test_01_settle_refund_refund_walkthrough():
    def body():
        ledger, log = UserLedger(), EventLog()
        cfg = grocery_config()
        txn = Transaction(id="t1", user="u1", amount=10000,
                          category="GROCERY", period=0)
        reward_on_settlement(ledger, txn, cfg, log, day=1)
        # t1's net reward is read from the log, the source of truth
        assert (txn.reward_original, net_reward_from_log(log), ledger.balance) == (
            500, 500, 500)
        assert txn.status is SETTLED
        assert format_usd(ledger.balance) == "$5.00"

        reward_on_refund(ledger, txn, 5000, log, 3, current_period=0)
        assert (txn.reward_original, net_reward_from_log(log), ledger.balance) == (
            500, 250, 250)
        assert txn.status is PART_REF
        assert format_usd(ledger.balance) == "$2.50"

        reward_on_refund(ledger, txn, 5000, log, 5, current_period=0)
        assert (txn.reward_original, net_reward_from_log(log), ledger.balance) == (
            500, 0, 0)
        assert txn.status is REFUNDED
        assert format_usd(ledger.balance) == "$0.00"

    _verdict(1, "settle-refund-refund walkthrough is cent-exact", body)


def test_02_equal_partial_refunds_claw_equally():
    def body():
        ledger, log = UserLedger(), EventLog()
        cfg = grocery_config()
        txn = Transaction(id="t1", user="u1", amount=10000,
                          category="GROCERY", period=0)
        reward_on_settlement(ledger, txn, cfg, log, day=1)
        c1 = reward_on_refund(ledger, txn, 4000, log, 3, current_period=0)
        c2 = reward_on_refund(ledger, txn, 4000, log, 5, current_period=0)
        assert (c1, c2) == (200, 200)

    _verdict(2, "two 40.00 refunds claw exactly 2.00 each", body)


def test_03_variant_matrix_matches_golden(fixtures_dir):
    def body():
        battery = {n: run_battery(n) for n in MATRIX_VARIANTS}
        rows = comparison_matrix(battery)
        labels = {r["variant"]: r["reward_integrity"] for r in rows}
        assert labels == {"A": "×", "B": "×", "C": "✓", "D": "✓", "E": "✓",
                          "F": "~", "V3a": "×"}
        golden = (fixtures_dir / "matrix_golden.txt").read_text()
        assert render_matrix(rows) == golden

    _verdict(3, "issuer comparison matrix matches the golden file", body)


def test_04_double_dip_extraction_on_variant_a():
    def body():
        modest = run_ddra("A", timing="same-cycle", purchase_minor=100_00, cycles=12)
        assert modest.value_extracted == 60_00  # $60 per year
        saturating = run_ddra("A", timing="same-cycle", purchase_minor=1000_00,
                              cycles=12)
        assert saturating.value_extracted == 600_00  # cap-limited $600 per year

    _verdict(4, "variant A leaks 60.00 modest / 600.00 cap-saturated per year", body)


def test_05_cross_cycle_split():
    def body():
        b = run_ddra("B", timing="cross-cycle", cycles=12)
        assert b.value_extracted == 60_00  # every granted reward survives
        assert b.redeemed_minor == 60_00
        defended = run_ddra("defensive-cycle", timing="cross-cycle", cycles=12)
        assert defended.value_extracted == 0

    _verdict(5, "cross-cycle refunds drain B but not the defended engine", body)


def _random_scenario(rng, variant):
    cfg = EngineConfig(
        reward_rate={"*": Fraction(rng.choice([1, 2, 3, 5, 7]), 100)},
        variant=variant,
    )
    events = []
    refund_count = 0
    n = rng.randint(1, 4)
    for i in range(n):
        day = rng.randint(0, 70)
        # whole-dollar purchases keep per-transaction rounding aligned
        # between the engine floor and the oracle ceiling
        amount = rng.randint(1, 500) * 100
        tid = f"t{i}"
        events.append(ScenarioEvent(day=day, kind="purchase", txn_id=tid,
                                    amount_minor=amount, category="X"))
        remaining = amount
        for _ in range(rng.randint(0, 3)):
            if remaining <= 0:
                break
            x = remaining if rng.random() < 0.3 else rng.randint(1, remaining)
            events.append(ScenarioEvent(day=day + rng.randint(0, 40),
                                        kind="refund", txn_id=tid, amount_minor=x))
            remaining -= x
            refund_count += 1
    sc = Scenario(label="bulk", config=cfg, events=events,
                  auto_redeem=rng.random() < 0.5)
    return sc, refund_count


def test_06_bulk_random_sequences_respect_the_oracle():
    def body():
        rng = random.Random(20260824)
        start = time.monotonic()
        runs = 0
        for _ in range(5000):
            for variant in ("defensive-instant", "defensive-cycle"):
                sc, refunds = _random_scenario(rng, variant)
                report = run(sc, daily_snapshots=False)
                reward = net_reward_from_log(report.log)
                bound = oracle_bound(report.log, sc.config)
                assert reward <= bound
                assert abs(reward - bound) <= refunds
                runs += 1
        elapsed = time.monotonic() - start
        assert runs == 10_000
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _verdict(6, "10000 random sequences stay within the oracle in under 60s", body)


def test_07_redemption_gate_visible_in_logs():
    def body():
        cfg = grocery_config(variant="defensive-cycle", b_min=100)
        events = [
            ScenarioEvent(day=3, kind="purchase", txn_id="t1",
                          amount_minor=100000, category="GROCERY"),
            # inside the post-close grace window: must be denied
            ScenarioEvent(day=32, kind="redeem-request", amount_minor=1000),
            # after the hold expires: allowed
            ScenarioEvent(day=40, kind="redeem-request", amount_minor=1000),
            # would breach the minimum-balance floor: denied
            ScenarioEvent(day=41, kind="redeem-request", amount_minor=999999),
        ]
        report = run(Scenario(label="gate", config=cfg, events=events))
        log = report.log

        requests = sum(1 for e in log if e.kind == "redeem-request")
        redeems = [e for e in log if e.kind == "redeem"]
        assert requests == 3
        assert [e.day for e in redeems] == [40]

        # replay the deltas: every redemption respects floor and hold
        balance = 0
        hold = None
        for e in log:
            if e.kind == "hold-set":
                hold = e.day + cfg.grace_days
            if e.kind in ("settle", "reconcile-settle", "refund", "chargeback",
                          "reconcile-clawback", "redeem"):
                balance += e.amount_minor
            if e.kind == "redeem":
                assert balance >= cfg.b_min
                assert hold is None or e.day >= hold

    _verdict(7, "logs show no redemption below the floor or inside a hold", body)


def test_08_refund_consistency_windows_per_variant():
    def body():
        def refund_scenario(variant, cross_cycle):
            cfg = grocery_config(variant=variant)
            p_day, r_day = (20, 35) if cross_cycle else (1, 5)
            return Scenario(label="rrc", config=cfg, events=[
                ScenarioEvent(day=p_day, kind="purchase", txn_id="t1",
                              amount_minor=10000, category="GROCERY"),
                ScenarioEvent(day=r_day, kind="refund", txn_id="t1",
                              amount_minor=10000),
            ])

        # immediate adjustment: restored the same day
        for cross in (False, True):
            report = run(refund_scenario("defensive-instant", cross))
            assert all(v.ok for v in check_rrc(report.log, 0, report.config))

        # cycle-deferred adjustment: restored within one period
        for variant in ("defensive-cycle", "D", "E", "F"):
            for cross in (False, True):
                report = run(refund_scenario(variant, cross))
                verdicts = check_rrc(report.log, 30, report.config)
                assert verdicts and all(v.ok for v in verdicts)

        # no cross-cycle adjustment at all: never restored
        for variant in ("A", "B"):
            report = run(refund_scenario(variant, cross_cycle=True))
            verdicts = check_rrc(report.log, 10**9, report.config)
            assert any(v.restored_day is None for v in verdicts)

    _verdict(8, "refund consistency windows: 0d instant, 30d cycle, never A/B", body)


def test_09_leakage_grid_is_exact():
    def body():
        cap = 5000
        expected = [
            ["0.06", "0.6", "6.0"],
            ["0.6", "6.0", "60.0"],
            ["3.0", "30.0", "300.0"],
        ]
        rates = [Fraction(1, 1000), Fraction(1, 100), Fraction(5, 100)]
        cohorts = [100_000, 1_000_000, 10_000_000]
        got = [
            [format_millions(leakage_estimate(p, users, cap)) for users in cohorts]
            for p in rates
        ]
        assert got == expected

    _verdict(9, "all nine annual-loss cells match to the digit", body)


def test_10_every_fixture_replays_byte_identically(fixtures_dir, tmp_path):
    def body():
        fixtures = sorted(fixtures_dir.glob("*.json"))
        assert fixtures
        for path in fixtures:
            sc = Scenario.load(path)
            report = run(sc, daily_snapshots=False)
            first = tmp_path / (path.stem + ".a.jsonl")
            report.log.write_jsonl(first)
            second = tmp_path / (path.stem + ".b.jsonl")
            replay(first, sc.config).log.write_jsonl(second)
            assert first.read_bytes() == second.read_bytes(), path.name

    _verdict(10, "every fixture scenario replays byte-identically", body)
