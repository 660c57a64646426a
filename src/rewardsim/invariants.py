"""Invariant checking over event logs.

Two checks run over the audit trail alone, never over engine internals:

* reward integrity: cumulative net reward never exceeds what the net
  spend (purchases minus refunds and chargebacks) entitles the user to,
  bucketed by billing period and category with caps applied;
* refund-reward consistency: after every refund the granted rewards are
  re-aligned with the reduced spend within a stated number of days.

Both recompute entitlements from the principal-flow events, so they act
as independent oracles for the engine's own arithmetic.  Both questions
are asked "as of" every day of the log, and both are answered by one
streaming fold over it (``_fold``); so are the one-day questions of
``entitlement_bound`` and ``check_integrity``.  The aggregates the
simulation reads on every run (``net_spend``, ``oracle_bound``,
``net_reward_from_log``) stay single lean passes: on a short log they
are cheaper than the fold.

An event that reverses, grants or claws for a transaction with no
purchase, or a second purchase of one id, raises ``LogInvalid`` naming
the event's seq.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .ledger import (
    CLAW_KINDS,
    GRANT_KINDS,
    PRINCIPAL_KINDS,
    REVERSAL_KINDS,
    REWARD_KINDS,
    EngineConfig,
    EventLog,
    LogInvalid,
)
from .money import rate_ceil


@dataclass
class IntegritySnapshot:
    day: int
    net_reward: int
    bound: int
    ok: bool


@dataclass
class RrcVerdict:
    txn_id: str
    refund_day: int
    restored_day: int | None  # None: consistency never restored
    ok: bool


@dataclass(slots=True)
class _TxnFlow:
    """Principal and reward flow for one transaction, rebuilt from the log."""

    amount: int = 0
    category: str = ""
    period: int = 0
    refunded: int = 0
    granted: int = 0
    clawed: int = 0
    ceiling: int = 0  # ceil(rate * remaining principal); kept by the fold only


def _duplicate_purchase(ev) -> LogInvalid:
    return LogInvalid(ev.seq, f"duplicate purchase of transaction {ev.txn_id!r}")


def _no_purchase(ev) -> LogInvalid:
    return LogInvalid(
        ev.seq, f"{ev.kind} for transaction {ev.txn_id!r} with no purchase"
    )


def _flows(log: EventLog, as_of_day: int | None = None) -> dict:
    """Each purchase's amount, category and reversed principal."""
    flows: dict[str, _TxnFlow] = {}
    try:
        for ev in log:
            if as_of_day is not None and ev.day > as_of_day:
                continue
            kind = ev.kind
            if kind == "purchase":
                if ev.txn_id in flows:
                    raise _duplicate_purchase(ev)
                flows[ev.txn_id] = _TxnFlow(amount=ev.amount_minor,
                                            category=ev.category)
            elif kind in REVERSAL_KINDS:
                flows[ev.txn_id].refunded -= ev.amount_minor
            elif kind in REWARD_KINDS and ev.txn_id not in flows:
                raise _no_purchase(ev)
    except KeyError:
        raise _no_purchase(ev) from None
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
        if ev.kind in REWARD_KINDS
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
    return _fold(_up_to(log, as_of_day), config).entitled


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
    log: EventLog, config: EngineConfig, as_of_day: int | None = None
) -> IntegritySnapshot:
    """One point-in-time reward-integrity check of the log's net reward,
    as of ``as_of_day`` (default: the log's last day)."""
    if as_of_day is None:
        as_of_day = max((ev.day for ev in log), default=0)
    fold = _fold(_up_to(log, as_of_day), config)
    return IntegritySnapshot(
        day=as_of_day, net_reward=fold.reward, bound=fold.entitled,
        ok=fold.reward <= fold.entitled,
    )


class _Fold:
    """Log state as of the end of a day, advanced one event at a time.

    Every running total changes by the delta of the one transaction or
    (period, category) bucket an event touches, so each event costs O(1)
    and the whole log one pass.  Open reversals wait per transaction and
    are resolved at the end of the first day on which both RRC
    conditions hold (see ``check_rrc``).
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self.terms: dict[str, tuple] = {}  # category -> (rate, cap)
        self.flows: dict[str, _TxnFlow] = {}
        self.buckets: dict[tuple, tuple] = {}  # (period, category) -> (spend, capped ceil)
        self.entitled = 0  # sum of bucket terms: the entitlement bound
        self.ceiling = 0  # sum of per-txn ceilings: the oracle bound
        self.reward = 0  # net reward: grants less clawbacks
        self.snapshots: list[IntegritySnapshot] = []
        self.reversals: list = []  # [seq, txn_id, day, restored day or None]
        self.open: dict[str, list] = {}  # txn_id -> its unresolved reversals
        self.touched: set = set()  # txns with open reversals touched today
        self.ready: set = set()  # txns with open reversals whose reward fits

    def apply(self, ev) -> None:
        kind = ev.kind
        if kind == "purchase":
            if ev.txn_id in self.flows:
                raise _duplicate_purchase(ev)
            flow = _TxnFlow(amount=ev.amount_minor, category=ev.category,
                            period=ev.period)
            self.flows[ev.txn_id] = flow
            self._principal(flow, ev.amount_minor)
            return
        if kind in REVERSAL_KINDS:
            flow = self._flow(ev)
            flow.refunded -= ev.amount_minor
            self._principal(flow, ev.amount_minor)
            rev = [ev.seq, ev.txn_id, ev.day, None]
            self.reversals.append(rev)
            self.open.setdefault(ev.txn_id, []).append(rev)
        elif kind in GRANT_KINDS:
            self._flow(ev).granted += ev.amount_minor
            self.reward += ev.amount_minor
        elif kind in CLAW_KINDS:
            self._flow(ev).clawed -= ev.amount_minor
            self.reward += ev.amount_minor
        else:
            return
        if ev.txn_id in self.open:
            self.touched.add(ev.txn_id)

    def _flow(self, ev) -> _TxnFlow:
        try:
            return self.flows[ev.txn_id]
        except KeyError:
            raise _no_purchase(ev) from None

    def _principal(self, flow: _TxnFlow, delta: int) -> None:
        """Move ``delta`` of principal into or out of ``flow``'s bucket."""
        terms = self.terms.get(flow.category)
        if terms is None:
            terms = (self.config.rate(flow.category), self.config.cap(flow.category))
            self.terms[flow.category] = terms
        rate, cap = terms
        key = (flow.period, flow.category)
        spend, old = self.buckets.get(key, (0, 0))
        spend += delta
        new = rate_ceil(rate, max(spend, 0))
        if cap is not None:
            new = min(new, cap)
        self.buckets[key] = (spend, new)
        self.entitled += new - old
        ceiling = rate_ceil(rate, max(flow.amount - flow.refunded, 0))
        self.ceiling += ceiling - flow.ceiling
        flow.ceiling = ceiling

    def close_day(self, day: int) -> None:
        self.snapshots.append(IntegritySnapshot(
            day=day, net_reward=self.reward, bound=self.entitled,
            ok=self.reward <= self.entitled,
        ))
        # a txn's own RRC test reads only its flow, so only txns touched
        # today can change their answer
        for txn_id in self.touched:
            flow = self.flows[txn_id]
            if flow.granted - flow.clawed <= flow.ceiling:
                self.ready.add(txn_id)
            else:
                self.ready.discard(txn_id)
        self.touched.clear()
        if self.ready and self.reward <= self.ceiling:
            for txn_id in self.ready:
                for rev in self.open.pop(txn_id):
                    rev[3] = day
            self.ready.clear()


def _up_to(log: EventLog, as_of_day: int | None):
    """The events of ``log`` dated up to ``as_of_day``, or all of them."""
    return log if as_of_day is None else [ev for ev in log if ev.day <= as_of_day]


def _fold(log, config: EngineConfig) -> _Fold:
    """One pass over the events of ``log`` in day order, closing each day
    it names.

    The sort is stable, so events keep log order within a day, and it
    costs O(n) on a log that is already in day order.
    """
    fold = _Fold(config)
    day = None
    for ev in sorted(log, key=attrgetter("day")):
        if ev.day != day:
            if day is not None:
                fold.close_day(day)
            day = ev.day
        fold.apply(ev)
    if day is not None:
        fold.close_day(day)
    return fold


def integrity_series(log: EventLog, config: EngineConfig) -> list[IntegritySnapshot]:
    """Integrity snapshots at every day on which anything happened.

    Each snapshot equals ``check_integrity(log, config, as_of_day=day)``:
    all events dated up to and including that day count.
    """
    return _fold(log, config).snapshots


def check_rrc(
    log: EventLog, delta_days: int, config: EngineConfig
) -> list[RrcVerdict]:
    """Refund-reward consistency: one verdict per reversal event, in log order.

    A reversal on day d is restored on the first day d' >= d where both
    hold, evaluated on the log state as of d':

    * the transaction's surviving reward (granted minus clawed) fits in
      the ceiling entitlement of its remaining principal, and
    * the global net reward fits in the global per-transaction ceiling.

    The verdict passes when d' - d <= delta_days.  A reversal whose
    reward is never re-aligned (no clawback path exists) gets
    restored_day None and fails for any delta.
    """
    reversals = sorted(_fold(log, config).reversals, key=itemgetter(0))
    return [
        RrcVerdict(
            txn_id=txn_id, refund_day=day, restored_day=restored,
            ok=restored is not None and restored - day <= delta_days,
        )
        for _, txn_id, day, restored in reversals
    ]
