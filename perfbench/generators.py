"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments and
returns plain JSON-ready data in the rewardsim scenario format (schema
1), so the same seed always yields byte-identical scenario JSON and the
program under test receives only the generated inputs.  Nothing here
imports rewardsim.
"""

from __future__ import annotations

import json
import random

SCHEMA = 1
PERIOD_DAYS = 30

# Four categories, two of them capped.  Rates are whole basis points so
# the scenario JSON round-trips exactly.
HEAVY_RATES_BPS = {"DINING": 300, "FUEL": 200, "GROCERY": 500, "OTHER": 100}
HEAVY_CAPS_MINOR = {"DINING": 30_00, "GROCERY": 50_00}
HEAVY_CATEGORIES = sorted(HEAVY_RATES_BPS)

# Shares of purchases that get each kind of reversal.  Fixed counts, not
# per-purchase coin flips, keep the account size steady across seeds.
PARTIAL_REFUND_SHARE = 0.15
FULL_REFUND_SHARE = 0.08
CHARGEBACK_SHARE = 0.04
REDEEM_REQUEST_SHARE = 0.05


def config_dict(variant: str, rates_bps: dict, caps_minor: dict | None = None,
                delivery_delay_days: int = 0) -> dict:
    """An engine configuration in the scenario file's JSON layout."""
    return {
        "variant": variant,
        "reward_rate_bps": dict(sorted(rates_bps.items())),
        "monthly_cap_minor": dict(sorted((caps_minor or {}).items())),
        "b_min_minor": 0,
        "grace_days": 7,
        "period_length_days": PERIOD_DAYS,
        "delivery_delay_days": delivery_delay_days,
    }


def _event(day: int, kind: str, txn_id: str = "", amount_minor: int = 0,
           category: str = "") -> dict:
    return {"day": day, "kind": kind, "txn_id": txn_id,
            "amount_minor": amount_minor, "category": category}


def scenario_dict(label: str, config: dict, events: list,
                  auto_redeem: bool = False) -> dict:
    return {"schema": SCHEMA, "label": label, "config": config,
            "auto_redeem": auto_redeem, "user": "u1", "events": events}


def heavy_events(seed: int, purchases: int, days: int,
                 cross_cycle_refunds: bool = True) -> list:
    """One busy account: purchases over ``days`` days with reversals.

    Partial refunds (one or two) and full refunds, chargebacks on
    purchases that are settled by the time they post, and
    redeem-requests.  A chargeback only ever hits an untouched purchase
    and posts after the purchase's statement close, so it is valid under
    both cycle and delayed-instant variants.

    Refunds land up to 45 days after the purchase, so many cross a
    statement close.  With ``cross_cycle_refunds`` off every refund lands
    before its purchase's close instead: a statement-close variant holds
    a cross-cycle clawback until the next close, and the daily integrity
    series reports that float window as a violation unless rewards still
    pending on later purchases happen to cover it.
    """
    rng = random.Random(seed)
    p_days = sorted(rng.randrange(days) for _ in range(purchases))
    eligible = list(range(purchases))
    rng.shuffle(eligible)
    n_partial = int(purchases * PARTIAL_REFUND_SHARE)
    n_full = int(purchases * FULL_REFUND_SHARE)
    n_cb = int(purchases * CHARGEBACK_SHARE)
    partial = set(eligible[:n_partial])
    full = set(eligible[n_partial:n_partial + n_full])
    chargeback = set(eligible[n_partial + n_full:n_partial + n_full + n_cb])

    events = []
    for i, day in enumerate(p_days):
        tid = f"t{i:05d}"
        amount = rng.randint(5, 400) * 100
        events.append(_event(day, "purchase", tid, amount,
                             HEAVY_CATEGORIES[rng.randrange(4)]))
        close = (day // PERIOD_DAYS + 1) * PERIOD_DAYS
        latest = 45 if cross_cycle_refunds else close - 1 - day
        if i in partial:
            remaining = amount
            for _ in range(rng.randint(1, 2)):
                if remaining < 2:
                    break
                x = rng.randint(1, remaining - 1)
                events.append(_event(day + rng.randint(0, latest), "refund", tid, x))
                remaining -= x
        elif i in full:
            events.append(_event(day + rng.randint(0, latest), "refund", tid, amount))
        elif i in chargeback:
            events.append(_event(close + rng.randint(1, 60), "chargeback", tid))
    for _ in range(int(purchases * REDEEM_REQUEST_SHARE)):
        events.append(_event(rng.randrange(days), "redeem-request",
                             amount_minor=rng.randint(1, 20) * 100))
    events.sort(key=lambda e: e["day"])  # stable: input order within a day
    return events


def heavy_account(seed: int, purchases: int, days: int, variant: str,
                  label: str = "heavy", cross_cycle_refunds: bool = True) -> dict:
    """The heavy-account family, with the sweep-everything policy on."""
    config = config_dict(variant, HEAVY_RATES_BPS, HEAVY_CAPS_MINOR)
    events = heavy_events(seed, purchases, days, cross_cycle_refunds)
    return scenario_dict(label, config, events, auto_redeem=True)


def random_scenario(rng: random.Random, variant: str) -> tuple[dict, int]:
    """Same draws, in the same order, as the acceptance sweep's generator.

    Returns the scenario and the number of refunds it holds.
    """
    config = config_dict(variant, {"*": rng.choice([1, 2, 3, 5, 7]) * 100})
    events = []
    refund_count = 0
    n = rng.randint(1, 4)
    for i in range(n):
        day = rng.randint(0, 70)
        # whole-dollar purchases keep per-transaction rounding aligned
        # between the engine floor and the oracle ceiling
        amount = rng.randint(1, 500) * 100
        tid = f"t{i}"
        events.append(_event(day, "purchase", tid, amount, "X"))
        remaining = amount
        for _ in range(rng.randint(0, 3)):
            if remaining <= 0:
                break
            x = remaining if rng.random() < 0.3 else rng.randint(1, remaining)
            events.append(_event(day + rng.randint(0, 40), "refund", tid, x))
            remaining -= x
            refund_count += 1
    sc = scenario_dict("bulk", config, events, auto_redeem=rng.random() < 0.5)
    return sc, refund_count


def sweep_scenarios(seed: int, count: int) -> list:
    """``count`` acceptance-sweep scenarios, alternating the two defended
    variants, each paired with its refund count."""
    rng = random.Random(seed)
    variants = ("defensive-instant", "defensive-cycle")
    return [random_scenario(rng, variants[i % 2]) for i in range(count)]


# The nine variants and the label each must earn from the battery.
EXPECTED_LABELS = {
    "A": "×", "B": "×", "C": "✓", "D": "✓", "E": "✓", "F": "~",
    "V3a": "×", "defensive-instant": "✓", "defensive-cycle": "✓",
}


def attack_grid(seed: int, sizes: int, cycles: int) -> list:
    """Battery cells: every variant at ``sizes`` seeded purchase sizes.

    Purchase sizes run from $10 (reward well under the cap) to $2,000
    (reward cap-limited), so both sides of the cap are exercised.
    """
    rng = random.Random(seed)
    purchases = [rng.randint(10, 2000) * 100 for _ in range(sizes)]
    return [
        {"variant": v, "purchase_minor": p, "cycles": cycles}
        for p in purchases
        for v in EXPECTED_LABELS
    ]


def dumps(data) -> str:
    """Canonical JSON text of generated inputs."""
    return json.dumps(data, ensure_ascii=False, separators=(",", ":"))
