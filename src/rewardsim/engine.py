"""The defensive reward engine: settlement crediting, proportional
clawback, the redemption gate, and statement-cycle reconciliation.

All four operations mutate one user's UserLedger and Transactions, which
carry their own reward state, and emit events on the shared log.  They
are pure state-machine steps: same inputs, same outputs, no clocks and
no randomness.  ``records``, the harness's transaction dict, is kept
unread so that the spanned signatures stay as they are, as ``config``
is on ``reward_on_refund`` and ``reward_on_chargeback``.

Outside ``ledger``, this module alone writes a Transaction.  The harness
counts a reversal that moves no reward through ``refund_principal`` (a
refund while the transaction is pending, or under a variant that never
claws back) or ``chargeback_principal`` (a chargeback under such a
variant).

The engine trusts its caller: each function states its preconditions
and checks none, as ``harness.Simulation`` refuses a bad intent first.
``ledger.transition``'s ``IllegalTransition`` asserts the lifecycle: a
program fault, which the command line does not catch.
"""

from __future__ import annotations

from typing import NamedTuple

from .ledger import (
    CHARGEBACK,
    PART_REF,
    PENDING,
    REFUNDED,
    SETTLED,
    EngineConfig,
    EventLog,
    Transaction,
    transition,
)
from .money import mul_fraction, rate_floor


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
    granted (0 when the rate or cap headroom is zero).  Preconditions:
    ``txn`` is PENDING with ``reward_original == 0``, and
    ``total_refunded == presettle_refunded < amount``.
    """
    base = txn.amount - presettle_refunded
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
    txn.reward_original = r
    txn.claw_base = base
    transition(txn, SETTLED)
    return r


def _clawback(
    ledger,
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
    base, original = txn.claw_base, txn.reward_original
    prev = txn.total_refunded - (txn.amount - base)  # refunds since settlement
    old_claw = mul_fraction(prev, base, original)
    new_claw = mul_fraction(prev + x, base, original)
    r_claw = new_claw - old_claw  # never negative: new_claw is monotone in x

    applied = r_claw
    if floor_balance_at_zero:
        # the zero-floor flaw: debt beyond the current balance is discarded
        applied = min(r_claw, max(ledger.balance, 0))
    if r_claw > 0 and txn.period == current_period:
        used = ledger.used(txn.period, txn.category)
        ledger.monthly_used[(txn.period, txn.category)] = max(0, used - r_claw)
    if applied > 0:
        ledger.balance -= applied  # may go negative: the debt is the defense
        log.emit(day, kind, txn.id, txn.user, -applied, txn.category, txn.period)
    return applied


def refund_principal(txn: Transaction, x: int) -> None:
    """Count ``x`` more refunded principal and advance the lifecycle: a
    SETTLED transaction becomes PART_REF, and one whose whole amount is
    back becomes REFUNDED, which cancels a PENDING one.  The reward is
    left as it is."""
    txn.total_refunded += x
    if txn.status is SETTLED:
        transition(txn, PART_REF)
    if txn.total_refunded == txn.amount:
        transition(txn, REFUNDED)


def chargeback_principal(txn: Transaction) -> None:
    """Count the whole amount reversed and mark the transaction
    CHARGEBACK.  The reward is left as it is."""
    txn.total_refunded = txn.amount
    transition(txn, CHARGEBACK)


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

    Cap headroom is restored only for same-period refunds; cross-cycle
    clawback operates purely through the balance.  Preconditions:
    ``txn`` is SETTLED or PART_REF, ``x > 0``, and ``x`` is at most the
    principal ``txn`` counts unrefunded.
    """
    r_claw = _clawback(
        ledger, txn, x, log, day, current_period, kind, floor_balance_at_zero,
    )
    refund_principal(txn, x)
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
    """Reverse all principal not yet refunded through the same clawback
    math.  Precondition: ``txn`` is SETTLED or PART_REF."""
    # never 0: a SETTLED or PART_REF transaction has principal left
    r_claw = _clawback(
        ledger, txn, txn.amount - txn.total_refunded, log, day,
        current_period, "chargeback", floor_balance_at_zero,
    )
    chargeback_principal(txn)
    return r_claw


def can_redeem(ledger, y: int, today: int, config: EngineConfig) -> RedeemDecision:
    """Redemption gate: grace hold first, then the B_min floor.
    Precondition: ``y > 0``."""
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
    """Execute an all-or-nothing redemption of ``y``.  Precondition:
    ``can_redeem(ledger, y, today, config)`` has just allowed it."""
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
    refunded after their transaction settled.  Phase 2 settles each
    transaction of ``period_txns`` (the period's purchases, in purchase
    order) that is still PENDING, net of the principal ``refunded``
    names for it, which its record already counts; ``refunded`` is
    read, never changed.  A transaction refunded in full was cancelled
    when the refund posted, so it is no longer PENDING.  Finally a
    positive ``grace_days`` pushes the redemption hold out to ``day +
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
        if txn.status is PENDING:
            reward_on_settlement(
                ledger, records, txn, config, log, day, kind="reconcile-settle",
                presettle_refunded=refunded.get(txn.id, 0),
            )

    new_hold = day + grace_days
    if grace_days > 0 and ledger.redemption_hold_until != new_hold:
        ledger.redemption_hold_until = new_hold
        log.emit(day, "hold-set", "", user, 0, "", period)
