"""Test-only reference: the rescanning invariant checkers.

These are the original, obviously-correct implementations of the
integrity series, refund-reward consistency and the refund-to-clawback
lags.  Each "as of day d" question rebuilds the log state anew,
which costs O(days x events) and worse, so the package answers them
with one streaming fold instead.  The differential tests assert that
the fold returns exactly what these return.  The package has no
refund-to-clawback lag of its own: it reads RRC restore lags, and the
tests assert that ``classify`` and ``attack`` read the same from both.

The verdict dataclasses are the package's own, so results compare with
plain dataclass equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from rewardsim.invariants import IntegritySnapshot, RrcVerdict
from rewardsim.ledger import EngineConfig, EventLog
from rewardsim.money import rate_ceil

# principal-flow kinds: purchases positive, reversals negative
PRINCIPAL_KINDS = frozenset({"purchase", "refund-posted", "chargeback-posted"})
REVERSAL_KINDS = frozenset({"refund-posted", "chargeback-posted"})
GRANT_KINDS = frozenset({"settle", "reconcile-settle"})
CLAW_KINDS = frozenset({"refund", "chargeback", "reconcile-clawback"})
REWARD_DELTA_KINDS = frozenset(
    {"settle", "refund", "chargeback", "redeem", "reconcile-settle", "reconcile-clawback"}
)


@dataclass
class _TxnFlow:
    """Principal and reward flow for one transaction, rebuilt from the log."""

    amount: int = 0
    category: str = ""
    period: int = 0
    purchase_day: int = 0
    refunded: int = 0
    granted: int = 0
    clawed: int = 0


def _flows(log: EventLog, as_of_day: int | None = None) -> dict:
    flows: dict[str, _TxnFlow] = {}
    for ev in log:
        if as_of_day is not None and ev.day > as_of_day:
            continue
        if ev.kind == "purchase":
            flows[ev.txn_id] = _TxnFlow(
                amount=ev.amount_minor,
                category=ev.category,
                period=ev.period,
                purchase_day=ev.day,
            )
        elif ev.kind in REVERSAL_KINDS:
            flows[ev.txn_id].refunded += -ev.amount_minor
        elif ev.kind in GRANT_KINDS:
            flows[ev.txn_id].granted += ev.amount_minor
        elif ev.kind in CLAW_KINDS:
            flows[ev.txn_id].clawed += -ev.amount_minor
    return flows


def net_spend(log: EventLog, as_of_day: int | None = None) -> int:
    """Signed principal flow: purchases minus refunds and chargebacks."""
    return sum(
        ev.amount_minor
        for ev in log
        if ev.kind in PRINCIPAL_KINDS
        and (as_of_day is None or ev.day <= as_of_day)
    )


def net_reward(ledger) -> int:
    """Rewards the user holds or has already taken out of the program."""
    return ledger.balance + ledger.redeemed_total


def net_reward_from_log(log: EventLog, as_of_day: int | None = None) -> int:
    """Net reward recomputed from the log alone.

    Redemptions move value from balance to redeemed without changing the
    total, so they are excluded from the sum.
    """
    return sum(
        ev.amount_minor
        for ev in log
        if ev.kind in REWARD_DELTA_KINDS
        and ev.kind != "redeem"
        and (as_of_day is None or ev.day <= as_of_day)
    )


def entitlement_bound(
    log: EventLog, config: EngineConfig, as_of_day: int | None = None
) -> int:
    """Capped entitlement implied by net spend per (period, category).

    Reversals count against the bucket of the original purchase.  Each
    bucket's entitlement rounds up, so the bound never trips on the
    engine's own downward rounding.
    """
    buckets: dict[tuple, int] = {}
    for flow in _flows(log, as_of_day).values():
        key = (flow.period, flow.category)
        buckets[key] = buckets.get(key, 0) + flow.amount - flow.refunded
    bound = 0
    for (_, category), spend in buckets.items():
        r = rate_ceil(config.rate(category), max(spend, 0))
        cap = config.cap(category)
        if cap is not None:
            r = min(r, cap)
        bound += r
    return bound


def oracle_bound(
    log: EventLog, config: EngineConfig, as_of_day: int | None = None
) -> int:
    """Per-transaction uncapped entitlement ceiling.

    Sums ceil(rate * remaining principal) over every purchase.  Ignores
    caps on purpose: the engine's net reward must stay at or below this
    under any refund sequence.
    """
    total = 0
    for flow in _flows(log, as_of_day).values():
        remaining = max(flow.amount - flow.refunded, 0)
        total += rate_ceil(config.rate(flow.category), remaining)
    return total


def check_integrity(
    log: EventLog,
    config: EngineConfig,
    as_of_day: int | None = None,
    ledger=None,
) -> IntegritySnapshot:
    """One point-in-time reward-integrity check.

    When a ledger is given, its balance plus redeemed total is checked;
    otherwise the net reward is recomputed from the log.
    """
    if as_of_day is None:
        as_of_day = max((ev.day for ev in log), default=0)
    reward = (
        net_reward(ledger) if ledger is not None else net_reward_from_log(log, as_of_day)
    )
    bound = entitlement_bound(log, config, as_of_day)
    return IntegritySnapshot(
        day=as_of_day, net_reward=reward, bound=bound, ok=reward <= bound
    )


def integrity_series(log: EventLog, config: EngineConfig) -> list[IntegritySnapshot]:
    """Integrity snapshots at every day on which anything happened."""
    days = sorted({ev.day for ev in log})
    return [check_integrity(log, config, as_of_day=d) for d in days]


def check_rrc(
    log: EventLog, delta_days: int, config: EngineConfig
) -> list[RrcVerdict]:
    """Refund-reward consistency: one verdict per reversal event.

    A reversal on day d is restored on the first day d' >= d where both
    hold, evaluated on the log state as of d':

    * the transaction's surviving reward (granted minus clawed) fits in
      the ceiling entitlement of its remaining principal, and
    * the global net reward fits in the global per-transaction ceiling.

    The verdict passes when d' - d <= delta_days.  A reversal whose
    reward is never re-aligned (no clawback path exists) gets
    restored_day None and fails for any delta.
    """
    reversals = [ev for ev in log if ev.kind in REVERSAL_KINDS]
    if not reversals:
        return []
    days = sorted({ev.day for ev in log})
    verdicts = []
    for rev in reversals:
        restored: int | None = None
        for d in days:
            if d < rev.day:
                continue
            flows = _flows(log, as_of_day=d)
            flow = flows[rev.txn_id]
            remaining = max(flow.amount - flow.refunded, 0)
            txn_bound = rate_ceil(config.rate(flow.category), remaining)
            if flow.granted - flow.clawed > txn_bound:
                continue
            if net_reward_from_log(log, as_of_day=d) > oracle_bound(
                log, config, as_of_day=d
            ):
                continue
            restored = d
            break
        ok = restored is not None and restored - rev.day <= delta_days
        verdicts.append(
            RrcVerdict(txn_id=rev.txn_id, refund_day=rev.day, restored_day=restored, ok=ok)
        )
    return verdicts


def refund_clawback_lags(report) -> list:
    """Per rewarded-then-refunded transaction, days from refund to clawback.

    Rescans the tail of the log for every reversal.
    """
    granted: dict[str, int] = {}
    lags = []
    for i, ev in enumerate(report.log):
        if ev.kind in GRANT_KINDS:
            granted[ev.txn_id] = granted.get(ev.txn_id, 0) + ev.amount_minor
        elif ev.kind in REVERSAL_KINDS:
            if granted.get(ev.txn_id, 0) <= 0:
                continue
            claw_day = next(
                (
                    later.day
                    for later in report.log.events[i + 1:]
                    if later.kind in CLAW_KINDS and later.txn_id == ev.txn_id
                ),
                None,
            )
            lags.append(None if claw_day is None else claw_day - ev.day)
    return lags
