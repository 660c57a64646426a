from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rewardsim import (
    EngineConfig,
    EventLog,
    Transaction,
    UserLedger,
    can_redeem,
    redeem,
    reward_on_chargeback,
    reward_on_refund,
    reward_on_settlement,
    statement_cycle_reconcile,
)
from rewardsim.engine import refund_principal
from rewardsim.invariants import net_reward_from_log
from rewardsim.ledger import CHARGEBACK, PART_REF, PENDING, REFUNDED, SETTLED


def fresh(variant="defensive-instant", **cfg_kw):
    defaults = dict(
        reward_rate={"GROCERY": Fraction(5, 100)},
        monthly_cap={"GROCERY": 50_00},
        variant=variant,
    )
    defaults.update(cfg_kw)
    return UserLedger(), {}, EventLog(), EngineConfig(**defaults)


def make_txn(txn_id="t1", amount=10000, period=0, category="GROCERY"):
    return Transaction(
        id=txn_id, user="u1", amount=amount,
        category=category, period=period,
    )


class TestSettlement:
    def test_reward_floors_and_credits(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn(amount=9999)
        r = reward_on_settlement(ledger, records, txn, cfg, log, day=1)
        assert r == 499  # 5% of 99.99 floors down
        assert ledger.balance == 499
        assert txn.status is SETTLED
        assert txn.reward_original == 499

    def test_cap_clips_reward(self):
        ledger, records, log, cfg = fresh()
        r1 = reward_on_settlement(ledger, records, make_txn("a", 90000), cfg, log, 1)
        r2 = reward_on_settlement(ledger, records, make_txn("b", 90000), cfg, log, 2)
        assert r1 == 4500
        assert r2 == 500  # only 5.00 of cap headroom left
        assert ledger.used(0, "GROCERY") == 5000

    def test_zero_reward_still_records_and_settles(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn(amount=10, category="UNKNOWN")
        r = reward_on_settlement(ledger, records, txn, cfg, log, 1)
        assert r == 0
        assert len(log) == 0  # no event for a zero grant
        assert txn.status is SETTLED
        assert txn.reward_original == 0


class TestRefundClawback:
    def test_two_partial_refunds_claw_proportionally(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn()
        reward_on_settlement(ledger, records, txn, cfg, log, 1)
        c1 = reward_on_refund(ledger, records, txn, 4000, cfg, log, 3, current_period=0)
        c2 = reward_on_refund(ledger, records, txn, 4000, cfg, log, 5, current_period=0)
        assert (c1, c2) == (200, 200)
        assert ledger.balance == 100
        assert txn.status is PART_REF

    def test_full_refund_claws_exactly_original(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn(amount=9999)
        r = reward_on_settlement(ledger, records, txn, cfg, log, 1)
        total = 0
        for x in (3333, 3333, 3333):
            total += reward_on_refund(
                ledger, records, txn, x, cfg, log, 3, current_period=0
            )
        assert total == r
        assert ledger.balance == 0
        assert txn.status is REFUNDED

    def test_same_period_refund_restores_cap_headroom(self):
        ledger, records, log, cfg = fresh()
        txn_a = make_txn("a", 100000)
        reward_on_settlement(ledger, records, txn_a, cfg, log, 1)
        assert ledger.used(0, "GROCERY") == 5000  # cap saturated
        # refund half of "a" while still in period 0: headroom returns
        reward_on_refund(ledger, records, txn_a, 50000, cfg, log, 2, current_period=0)
        assert ledger.used(0, "GROCERY") == 2500
        r = reward_on_settlement(ledger, records, make_txn("b"), cfg, log, 3)
        assert r == 500

    def test_cross_period_refund_leaves_cap_alone(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn()
        reward_on_settlement(ledger, records, txn, cfg, log, 1)
        reward_on_refund(ledger, records, txn, 10000, cfg, log, 35, current_period=1)
        assert ledger.used(0, "GROCERY") == 500  # period 0 usage untouched
        assert ledger.balance == 0

    def test_partial_refund_on_pending_counts_and_stays_pending(self):
        txn = make_txn()
        refund_principal(txn, 100)
        assert txn.status is PENDING
        assert (txn.total_refunded, txn.reward_original) == (100, 0)

    def test_full_refund_on_pending_cancels(self):
        txn = make_txn()
        refund_principal(txn, 4000)
        refund_principal(txn, 6000)
        assert txn.status is REFUNDED
        assert (txn.total_refunded, txn.reward_original) == (10000, 0)

    def test_balance_goes_negative_after_redeem_then_refund(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn()
        reward_on_settlement(ledger, records, txn, cfg, log, 1)
        redeem(ledger, 500, 2, cfg, log, "u1")
        reward_on_refund(ledger, records, txn, 10000, cfg, log, 3, current_period=0)
        assert ledger.balance == -500

    def test_zero_floor_discards_debt(self):
        ledger, records, log, cfg = fresh(variant="V3a")
        txn = make_txn()
        reward_on_settlement(ledger, records, txn, cfg, log, 1)
        redeem(ledger, 500, 2, cfg, log, "u1")
        applied = reward_on_refund(
            ledger, records, txn, 10000, cfg, log, 3, current_period=0,
            floor_balance_at_zero=True,
        )
        assert applied == 0
        assert ledger.balance == 0  # the 5.00 debt vanished

    @given(
        amount=st.integers(min_value=1, max_value=10**6),
        splits=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8),
    )
    def test_sequential_refunds_sum_to_full_clawback(self, amount, splits):
        # normalize splits into an exact partition of the amount
        total = sum(splits)
        parts = [max(1, s * amount // total) for s in splits]
        parts[-1] += amount - sum(parts)
        if parts[-1] <= 0:
            parts = [amount]
        ledger, records, log, cfg = fresh()
        txn = make_txn(amount=amount)
        r = reward_on_settlement(ledger, records, txn, cfg, log, 1)
        clawed = sum(
            reward_on_refund(ledger, records, txn, x, cfg, log, 2, current_period=0)
            for x in parts
        )
        assert clawed == r
        assert net_reward_from_log(log) == 0


class TestChargeback:
    def test_reverses_remaining_reward(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn()
        reward_on_settlement(ledger, records, txn, cfg, log, 1)
        c = reward_on_chargeback(ledger, records, txn, cfg, log, 5, current_period=0)
        assert c == 500
        assert ledger.balance == 0
        assert txn.status is CHARGEBACK

    def test_partly_refunded_reverses_the_rest(self):
        ledger, records, log, cfg = fresh()
        txn = make_txn()
        reward_on_settlement(ledger, records, txn, cfg, log, 1)
        assert reward_on_refund(ledger, records, txn, 4000, cfg, log, 2,
                                current_period=0) == 200
        c = reward_on_chargeback(ledger, records, txn, cfg, log, 5, current_period=0)
        assert c == 300
        assert ledger.balance == 0
        assert txn.total_refunded == 10000
        assert txn.status is CHARGEBACK


class TestRedemptionGate:
    def test_balance_floor(self):
        ledger, _, log, cfg = fresh(b_min=1000)
        ledger.balance = 1500
        assert can_redeem(ledger, 500, 0, cfg).allowed
        denied = can_redeem(ledger, 501, 0, cfg)
        assert not denied.allowed
        assert denied.reason == "insufficient-balance"

    def test_grace_hold_blocks_until_expiry(self):
        ledger, _, log, cfg = fresh()
        ledger.balance = 1000
        ledger.redemption_hold_until = 37
        held = can_redeem(ledger, 100, 36, cfg)
        assert not held.allowed and held.reason == "grace-hold"
        assert can_redeem(ledger, 100, 37, cfg).allowed

    @pytest.mark.parametrize("balance,hold", [(1000, None), (1000, 37), (50, None)],
                             ids=["ok", "grace-hold", "insufficient-balance"])
    def test_decision_cannot_be_changed(self, balance, hold):
        # every call returns one of three shared decisions
        ledger, _, log, cfg = fresh()
        ledger.balance = balance
        ledger.redemption_hold_until = hold
        decision = can_redeem(ledger, 100, 36, cfg)
        with pytest.raises(AttributeError):
            decision.allowed = not decision.allowed
        assert can_redeem(ledger, 100, 36, cfg) == decision

    def test_redeem_moves_balance_and_logs(self):
        ledger, _, log, cfg = fresh()
        ledger.balance = 700
        redeem(ledger, 300, 5, cfg, log, "u1")
        assert (ledger.balance, ledger.redeemed_total) == (400, 300)
        assert log.events[-1].kind == "redeem"
        assert log.events[-1].amount_minor == -300


class TestReconcile:
    def test_pending_refund_nets_before_settlement(self):
        ledger, records, log, cfg = fresh(variant="defensive-cycle")
        txn = make_txn()
        refund_principal(txn, 4000)
        statement_cycle_reconcile(
            ledger, records, [txn], {"t1": 4000}, [], 0, cfg, log, day=30,
            grace_days=7,
        )
        assert [(e.day, e.kind, e.txn_id, e.amount_minor) for e in log] == [
            (30, "reconcile-settle", "t1", 300),  # 5% of the 60.00 kept
            (30, "hold-set", "", 0),
        ]
        assert ledger.balance == 300
        assert txn.claw_base == 6000
        assert txn.total_refunded == 4000

    def test_close_leaves_refunded_unchanged(self):
        # the tally is the simulation's live one: the close reads it and
        # must not consume it
        ledger, records, log, cfg = fresh(variant="defensive-cycle")
        refunded = {"a": 4000, "b": 10000, "elsewhere": 500}
        txns = [make_txn("a"), make_txn("b")]
        refund_principal(txns[0], 4000)
        refund_principal(txns[1], 10000)
        statement_cycle_reconcile(ledger, records, txns, refunded, [], 0, cfg, log, 30)
        assert refunded == {"a": 4000, "b": 10000, "elsewhere": 500}
        assert [(e.kind, e.txn_id, e.amount_minor) for e in log] == [
            ("reconcile-settle", "a", 300),
        ]
        assert txns[1].status is REFUNDED

    def test_late_refunds_claw_at_close(self):
        ledger, records, log, cfg = fresh(variant="defensive-cycle")
        txn = make_txn(period=0)
        reward_on_settlement(ledger, records, txn, cfg, log, 30, kind="reconcile-settle")
        statement_cycle_reconcile(
            ledger, records, [], {"t1": 5000}, [(txn, 5000)], 1, cfg, log, 60
        )
        assert [(e.day, e.kind, e.txn_id, e.amount_minor) for e in log][1:] == [
            (60, "reconcile-clawback", "t1", -250),
        ]
        assert ledger.balance == 250
        assert net_reward_from_log(log) == 250
        assert txn.status is PART_REF

    def test_hold_event_emitted_once_per_change(self):
        ledger, records, log, cfg = fresh(variant="defensive-cycle")
        txn = make_txn()
        statement_cycle_reconcile(
            ledger, records, [txn], {}, [], 0, cfg, log, 30, grace_days=7
        )
        assert ledger.redemption_hold_until == 37
        assert [e.kind for e in log][-1] == "hold-set"

    def test_refund_after_reconcile_settlement_divides_by_eligible(self):
        # settle on the netted amount, then refund the rest: the reward
        # must reach exactly zero, not hang on a rounding residue
        ledger, records, log, cfg = fresh(variant="defensive-cycle")
        txn = make_txn(amount=10000)
        refund_principal(txn, 3000)
        statement_cycle_reconcile(
            ledger, records, [txn], {"t1": 3000}, [], 0, cfg, log, 30
        )
        assert ledger.balance == 350
        reward_on_refund(ledger, records, txn, 7000, cfg, log, 40, current_period=1)
        assert ledger.balance == 0
        assert net_reward_from_log(log) == 0
        assert txn.status is REFUNDED
