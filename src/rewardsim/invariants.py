"""Invariant checking over event logs.

Two checks run over the audit trail alone, never over engine internals:

* reward integrity: cumulative net reward never exceeds what the net
  spend (purchases minus refunds and chargebacks) entitles the user to,
  bucketed by billing period and category with caps applied;
* refund-reward consistency: after every refund or chargeback, that
  transaction's surviving reward is re-aligned with its remaining
  principal within a stated number of days.  Each verdict reads only
  its own transaction; the aggregate bound on the net reward is reward
  integrity's.

Both recompute entitlements from the principal-flow events, so they act
as independent oracles for the engine's own arithmetic.  Both questions
are asked "as of" every day of the log, and one streaming fold over it,
``check_rrc``'s body (``perfbench/tracing.py`` spans that name, not
``audit_log``), answers both.  It keeps the principal, reward and ceiling
of each transaction and the open reversals, and records each day's
principal moves, from which the result's ``.integrity`` builds the spend
and capped ceiling of each (period, category) bucket on its first
read.  Each bucket and each purchase keeps its rate as the integer terms
``(-numerator, denominator)`` of ``money.ceil_terms``, so every ceiling
after an event is the one integer expression ``-(n * amount // d)``.  A
pass takes the terms of each category once, with ``rate_ceil``'s check,
from its own ``_CeilTerms`` table: a Fraction's ``numerator`` and
``denominator`` are Python-level properties, which cost more than the
division.  The aggregates the simulation reads on every run
(``net_spend``, ``oracle_bound``, ``net_reward_from_log``) stay single
lean passes: on a short log they are cheaper than the fold.

Every function answers for the whole log it is given.  Reward integrity
as of the log's end is ``integrity_series(log, config)[-1]``, and its
``.bound`` the capped entitlement.  To ask any question as of day ``d``,
pass the prefix ``[ev for ev in log if ev.day <= d]``.

An event that reverses, grants or claws for a transaction with no
purchase, or a second purchase of one id, raises ``LogInvalid`` naming
the event's seq.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import NamedTuple

from .ledger import (
    PRINCIPAL_KINDS,
    REVERSAL_KINDS,
    REWARD_KINDS,
    EngineConfig,
    EventLog,
    LogInvalid,
    RewardEvent,
)
from .money import ceil_terms


class IntegritySnapshot(NamedTuple):
    day: int
    net_reward: int
    bound: int
    ok: bool


class RrcVerdict(NamedTuple):
    txn_id: str
    refund_day: int
    restored_day: int | None  # None: consistency never restored
    ok: bool


_DAY = attrgetter("day")
# past the last event: its day closes the last day of the log
_END = (None,) * len(RewardEvent._fields)


class _CeilTerms(dict):
    """category -> ``ceil_terms(config.rate(category))``, taken on first use;
    one table per pass, so a pass reads each category's rate once."""

    __slots__ = ("config",)

    def __init__(self, config: EngineConfig):
        self.config = config

    def __missing__(self, category: str) -> tuple[int, int]:
        terms = self[category] = ceil_terms(self.config.rate(category))
        return terms


def _duplicate_purchase(ev) -> LogInvalid:
    return LogInvalid(ev.seq, f"duplicate purchase of transaction {ev.txn_id!r}")


def _no_purchase(ev) -> LogInvalid:
    return LogInvalid(
        ev.seq, f"{ev.kind} for transaction {ev.txn_id!r} with no purchase"
    )


def net_spend(log: EventLog) -> int:
    """Signed principal flow: purchases minus refunds and chargebacks."""
    return sum(ev.amount_minor for ev in log if ev.kind in PRINCIPAL_KINDS)


def net_reward(ledger) -> int:
    """Rewards the user holds or has already taken out of the program."""
    return ledger.balance + ledger.redeemed_total


def net_reward_from_log(log: EventLog) -> int:
    """Net reward recomputed from the log alone.

    Redemptions move value from balance to redeemed without changing the
    total, so they are excluded from the sum.
    """
    return sum(ev.amount_minor for ev in log if ev.kind in REWARD_KINDS)


def oracle_bound(log: EventLog, config: EngineConfig) -> int:
    """Per-transaction uncapped entitlement ceiling.

    Sums ceil(rate * remaining principal) over every purchase.  Ignores
    caps on purpose: the engine's net reward must stay at or below this
    under any refund sequence.
    """
    terms = _CeilTerms(config)
    # txn_id -> [*ceil_terms(rate), remaining principal]
    flows: dict[str, list] = {}
    try:
        for ev in log:
            kind = ev.kind
            if kind == "purchase":
                if ev.txn_id in flows:
                    raise _duplicate_purchase(ev)
                flows[ev.txn_id] = [*terms[ev.category], ev.amount_minor]
            elif kind in REVERSAL_KINDS:
                flows[ev.txn_id][2] += ev.amount_minor
            elif kind in REWARD_KINDS and ev.txn_id not in flows:
                raise _no_purchase(ev)
    except KeyError:
        raise _no_purchase(ev) from None
    total = 0
    for n, d, principal in flows.values():
        if principal > 0:
            total -= n * principal // d
    return total


def integrity_series(log: EventLog, config: EngineConfig) -> list[IntegritySnapshot]:
    """Integrity snapshots at every day on which anything happened.

    Each snapshot counts every event dated up to and including its day.
    Its ``bound`` is the capped entitlement of the net spend per (period,
    category): reversals count against the bucket of the original
    purchase, and each bucket's entitlement rounds up, so the bound never
    trips on the engine's own downward rounding.  The last snapshot
    answers for the whole log; an empty log has none.
    """
    return check_rrc(log, 0, config).integrity


class RrcVerdicts(list):
    """``check_rrc``'s verdicts.  ``integrity`` is ``integrity_series`` of
    the same log, built on first read from the fold's day closes, so a
    caller that reads only the verdicts skips the bucket arithmetic."""

    __slots__ = ("_integrity", "_closes")

    @property
    def integrity(self) -> list[IntegritySnapshot]:
        if self._integrity is not None:
            return self._integrity
        terms, config, closes = self._closes
        # (period, category) -> [spend, ceiling, *ceil_terms(rate), cap]
        buckets: dict[tuple, list] = {}
        entitled = 0
        snapshots = self._integrity = []
        for day, reward, moves in closes:
            for key, amount in moves:
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = [
                        0, 0, *terms[key[1]], config.cap(key[1])]
                spend, old, n, d, cap = bucket
                spend += amount
                new = -(n * spend // d) if spend > 0 else 0
                if cap is not None and new > cap:
                    new = cap
                bucket[0] = spend
                bucket[1] = new
                entitled += new - old
            # tuple.__new__ skips the named tuple's Python-level __new__
            snapshots.append(tuple.__new__(IntegritySnapshot, (
                day, reward, entitled, reward <= entitled)))
        self._closes = None
        return snapshots


def check_rrc(
    log: EventLog, delta_days: int, config: EngineConfig
) -> list[RrcVerdict]:
    """Refund-reward consistency: one verdict per reversal event, in log order.

    A reversal on day d is restored at the first end of a day d' >= d on
    which its own transaction's surviving reward (granted minus clawed)
    fits in ceil(rate * remaining principal).  Only that transaction's
    events decide the verdict; the aggregate bound on the whole log's
    net reward is reward integrity's, which ``integrity_series`` checks.

    The verdict passes when d' - d <= delta_days.  A reversal whose
    reward is never re-aligned (no clawback path exists) gets
    restored_day None and fails for any delta.

    The result's ``integrity`` is ``integrity_series(log, config)``.
    The clause is tested as each event of a transaction with open
    reversals posts: only its own events move its flow, so its last test
    of a day is its answer at the end of that day.
    """
    terms = _CeilTerms(config)
    # txn_id -> [*ceil_terms(rate), remaining principal, surviving reward,
    # ceil(rate * remaining principal), (period, category)]
    flows: dict[str, list] = {}
    reward = 0
    closes = []  # (day, net reward, the day's principal moves) per day
    moves = []  # (bucket key, principal change) of the current day
    reversals = []  # [seq, txn_id, day, restored day or None]
    pending: dict[str, list] = {}  # txn_id -> its unresolved reversals
    ready = set()  # txns with open reversals whose reward fits
    # the sort is stable, so events keep log order within a day, and it
    # costs O(n) on a log that is already in day order
    events = sorted(log, key=_DAY)
    events.append(_END)
    day = None
    for ev in events:
        seq, ev_day, kind, txn_id, _, amount, category, period = ev
        if ev_day != day:
            if day is not None:
                closes.append((day, reward, moves))
                moves = []
                for txn in ready:
                    for rev in pending.pop(txn):
                        rev[3] = day
                ready.clear()
            day = ev_day
        if kind == "purchase":
            if txn_id in flows:
                raise _duplicate_purchase(ev)
            n, d = terms[category]
            key = (period, category)
            flows[txn_id] = [
                n, d, amount, 0, -(n * amount // d) if amount > 0 else 0, key]
            moves.append((key, amount))
        elif kind in REVERSAL_KINDS:
            flow = flows.get(txn_id)
            if flow is None:
                raise _no_purchase(ev)
            principal = flow[2] = flow[2] + amount
            flow[4] = -(flow[0] * principal // flow[1]) if principal > 0 else 0
            rev = [seq, txn_id, day, None]
            reversals.append(rev)
            pending.setdefault(txn_id, []).append(rev)
            if flow[3] <= flow[4]:
                ready.add(txn_id)
            else:
                ready.discard(txn_id)
            moves.append((flow[5], amount))
        elif kind in REWARD_KINDS:
            flow = flows.get(txn_id)
            if flow is None:
                raise _no_purchase(ev)
            flow[3] += amount
            reward += amount
            if txn_id in pending:
                if flow[3] <= flow[4]:
                    ready.add(txn_id)
                else:
                    ready.discard(txn_id)
    reversals.sort(key=itemgetter(0))
    verdicts = RrcVerdicts([
        # txn_id, refund_day, restored_day, ok
        tuple.__new__(RrcVerdict, (
            txn_id, day, restored,
            restored is not None and restored - day <= delta_days))
        for _, txn_id, day, restored in reversals
    ])
    verdicts._integrity = None
    verdicts._closes = (terms, config, closes)
    return verdicts


def audit_log(log: EventLog, config: EngineConfig, delta: int) -> tuple:
    """Both checks of ``log``: ``(integrity_series(log, config),
    check_rrc(log, delta, config))``, from ``check_rrc``'s one fold."""
    verdicts = check_rrc(log, delta, config)
    return verdicts.integrity, verdicts
