"""The defensive reward engine: settlement crediting, proportional
clawback, the redemption gate, and statement-cycle reconciliation.

All four operations mutate a (UserLedger, records) pair for a single
user and emit events on the shared log.  They are pure state-machine
steps: same inputs, same outputs, no clocks and no randomness.
"""

from __future__ import annotations

from typing import NamedTuple

from .ledger import (
    EngineConfig,
    EventLog,
    RewardRecord,
    Transaction,
    TransactionStatus,
    transition,
)
from .money import mul_fraction, rate_floor


class AlreadySettled(Exception):
    pass


class RefundExceedsAmount(Exception):
    pass


class NonPositiveRefund(Exception):
    pass


class NonPositiveAmount(Exception):
    pass


class RedeemDenied(Exception):
    def __init__(self, reason: str):
        super().__init__(f"redemption denied: {reason}")
        self.reason = reason


class RedeemDecision(NamedTuple):
    allowed: bool
    reason: str  # "ok" | "grace-hold" | "insufficient-balance"


# the gate's three answers, shared by every call
_HELD = RedeemDecision(allowed=False, reason="grace-hold")
_SHORT = RedeemDecision(allowed=False, reason="insufficient-balance")
_ALLOWED = RedeemDecision(allowed=True, reason="ok")


def reward_on_settlement(
    ledger,
    records: dict,
    txn: Transaction,
    config: EngineConfig,
    log: EventLog,
    day: int,
    kind: str = "settle",
    presettle_refunded: int = 0,
) -> int:
    """Credit the settlement reward for one transaction.

    The reward is computed on the amount less ``presettle_refunded``, the
    principal refunded while the transaction was pending; the
    transaction's own amount is never mutated.  Returns the reward
    granted (0 when the rate or cap headroom is zero).
    """
    if txn.id in records:
        raise AlreadySettled(f"transaction {txn.id} already has a reward record")
    base = txn.amount - presettle_refunded
    if base <= 0:
        raise ValueError("settlement base must be positive")

    category, period = txn.category, txn.period
    key = (period, category)
    used = ledger.monthly_used.get(key, 0)
    r = rate_floor(config.rate(category), base)
    cap = config.cap(category)
    if cap is not None:
        r = min(r, cap - used)
    if r > 0:
        ledger.balance += r
        ledger.monthly_used[key] = used + r
        log.emit(day, kind, txn.id, txn.user, r, category, period)
    else:
        r = 0
    # reward_current, reward_original, total_refunded, claw_base
    records[txn.id] = RewardRecord(r, r, presettle_refunded, base)
    if txn.status is TransactionStatus.PENDING:
        transition(txn, TransactionStatus.SETTLED)
    return r


def settle_pending(
    ledger,
    records: dict,
    txn: Transaction,
    refunded: int,
    config: EngineConfig,
    log: EventLog,
    day: int,
    kind: str = "settle",
) -> None:
    """Settle a PENDING transaction net of the ``refunded`` principal
    that came back while it was pending.

    A transaction refunded in full is cancelled instead: it becomes
    REFUNDED with a zero reward record.
    """
    if refunded < txn.amount:
        reward_on_settlement(
            ledger, records, txn, config, log, day, kind,
            presettle_refunded=refunded,
        )
    else:
        transition(txn, TransactionStatus.REFUNDED)
        records[txn.id] = RewardRecord(
            reward_current=0,
            reward_original=0,
            total_refunded=txn.amount,
            claw_base=txn.amount,
        )


def _clawback(
    ledger,
    record: RewardRecord,
    txn: Transaction,
    x: int,
    log: EventLog,
    day: int,
    current_period: int,
    kind: str,
    floor_balance_at_zero: bool,
) -> int:
    """Shared clawback math for refunds and chargebacks.

    The clawback is telescoped against the cumulative refunded fraction
    so sequential partial refunds always sum to the exact proportional
    total; a full refund claws back the original reward to the cent.
    """
    presettle = txn.amount - record.claw_base
    prev = record.total_refunded - presettle  # refunds since settlement
    old_claw = mul_fraction(prev, record.claw_base, record.reward_original)
    new_claw = mul_fraction(prev + x, record.claw_base, record.reward_original)
    r_claw = new_claw - old_claw  # never negative: new_claw is monotone in x

    applied = r_claw
    if floor_balance_at_zero:
        # the zero-floor flaw: debt beyond the current balance is discarded
        applied = min(r_claw, max(ledger.balance, 0))
    if r_claw > 0:
        record.reward_current = max(0, record.reward_current - r_claw)
        if txn.period == current_period:
            used = ledger.used(txn.period, txn.category)
            ledger.monthly_used[(txn.period, txn.category)] = max(0, used - r_claw)
    if applied > 0:
        ledger.balance -= applied  # may go negative: the debt is the defense
        log.emit(day, kind, txn.id, txn.user, -applied, txn.category, txn.period)
    return applied


def refund_principal(record: RewardRecord, txn: Transaction, x: int) -> None:
    """Count ``x`` more refunded principal and advance the lifecycle:
    PART_REF, then REFUNDED once the whole amount is back.  The reward
    is left as it is."""
    record.total_refunded += x
    if txn.status is TransactionStatus.SETTLED:
        transition(txn, TransactionStatus.PART_REF)
    if record.total_refunded == txn.amount:
        transition(txn, TransactionStatus.REFUNDED)


def reward_on_refund(
    ledger,
    records: dict,
    txn: Transaction,
    x: int,
    config: EngineConfig,
    log: EventLog,
    day: int,
    current_period: int,
    kind: str = "refund",
    floor_balance_at_zero: bool = False,
) -> int:
    """Apply proportional clawback for a refund of ``x`` minor units.

    Non-eligible statuses return 0 without mutation.  Cap headroom is
    restored only for same-period refunds; cross-cycle clawback operates
    purely through the balance.
    """
    if txn.status not in (TransactionStatus.SETTLED, TransactionStatus.PART_REF):
        return 0
    if x <= 0:
        raise NonPositiveRefund(f"refund amount must be positive, got {x}")
    record = records[txn.id]
    if record.total_refunded + x > txn.amount:
        raise RefundExceedsAmount(
            f"refund {x} exceeds remaining refundable amount on {txn.id}"
        )

    r_claw = _clawback(
        ledger, record, txn, x, log, day, current_period, kind,
        floor_balance_at_zero,
    )
    refund_principal(record, txn, x)
    return r_claw


def reward_on_chargeback(
    ledger,
    records: dict,
    txn: Transaction,
    config: EngineConfig,
    log: EventLog,
    day: int,
    current_period: int,
    floor_balance_at_zero: bool = False,
) -> int:
    """Reverse all principal not yet refunded, from SETTLED or PART_REF,
    through the same clawback math."""
    if txn.status not in (TransactionStatus.SETTLED, TransactionStatus.PART_REF):
        return 0
    record = records[txn.id]
    remaining = txn.amount - record.total_refunded
    r_claw = 0
    if remaining > 0:
        r_claw = _clawback(
            ledger, record, txn, remaining, log, day, current_period,
            "chargeback", floor_balance_at_zero,
        )
    record.total_refunded = txn.amount
    transition(txn, TransactionStatus.CHARGEBACK)
    return r_claw


def can_redeem(ledger, y: int, today: int, config: EngineConfig) -> RedeemDecision:
    """Redemption gate: grace hold first, then the B_min floor."""
    if y <= 0:
        raise NonPositiveAmount(f"redemption amount must be positive, got {y}")
    hold = ledger.redemption_hold_until
    if hold is not None and today < hold:
        return _HELD
    if ledger.balance - y < config.b_min:
        return _SHORT
    return _ALLOWED


def redeem(
    ledger,
    y: int,
    today: int,
    config: EngineConfig,
    log: EventLog,
    user: str,
) -> None:
    """Execute an all-or-nothing redemption after the gate allows it."""
    decision = can_redeem(ledger, y, today, config)
    if not decision.allowed:
        raise RedeemDenied(decision.reason)
    ledger.balance -= y
    ledger.redeemed_total += y
    log.emit(today, "redeem", "", user, -y, "", config.period_of_day(today))


def statement_cycle_reconcile(
    ledger,
    records: dict,
    period_txns: list,
    refunded: dict,
    late_refunds: list,
    period: int,
    config: EngineConfig,
    log: EventLog,
    day: int,
    grace_days: int = 0,
    floor_balance_at_zero: bool = False,
    user: str = "",
) -> None:
    """Close period ``period`` in two phases.

    Phase 1 claws back ``late_refunds``, (transaction, amount) pairs
    refunded after their transaction settled; ``reward_on_refund``
    skips a transaction charged back since.  Phase 2 settles each
    transaction of ``period_txns`` (the period's purchases, in purchase
    order) that is still PENDING, net of the principal ``refunded``
    names for it, or cancels it when that covers it in full;
    ``refunded`` is read, never changed.  Finally a positive
    ``grace_days`` pushes the redemption hold out to ``day +
    grace_days``; ``user`` is named on its event.  With none, the hold
    is left as it is.

    Phase 2 also settles an instant variant's purchase whose delivery
    delay runs past this close: it credits today as ``reconcile-settle``
    rather than on its due day (purchase on day 2, delay 40: day 30).
    """
    for txn, x in late_refunds:
        reward_on_refund(
            ledger, records, txn, x, config, log, day,
            current_period=period, kind="reconcile-clawback",
            floor_balance_at_zero=floor_balance_at_zero,
        )

    for txn in period_txns:
        if txn.status is TransactionStatus.PENDING:
            settle_pending(
                ledger, records, txn, refunded.get(txn.id, 0), config, log, day,
                kind="reconcile-settle",
            )

    new_hold = day + grace_days
    if grace_days > 0 and ledger.redemption_hold_until != new_hold:
        ledger.redemption_hold_until = new_hold
        log.emit(day, "hold-set", "", user, 0, "", period)
