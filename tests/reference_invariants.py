"""Test-only reference: the rescanning and the two-pass invariant checkers.

The rescanning checkers are the original, obviously-correct
implementations of the integrity series, refund-reward consistency and
the refund-to-clawback lags.  Each "as of day d" question rebuilds the
log state anew, which costs O(days x events) and worse, so the package
answers them with one streaming fold instead.  The differential tests
assert that the fold returns exactly what these return.  The package
has no refund-to-clawback lag of its own: it reads RRC restore lags, and
the tests assert that ``classify`` and ``attack`` read the same from
both.

``integrity_pass`` and ``rrc_pass`` are the package's previous checkers:
one streaming pass each, over the same day-sorted log, keeping only the
state its own checker reads.  The package now answers both in one fold
(``invariants.audit_log``), which must return what the two passes
return and refuse an invalid log with the same ``LogInvalid``.

The verdict records are the package's own named tuples, so results
compare with plain tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter

from rewardsim.invariants import IntegritySnapshot, RrcVerdict
from rewardsim.ledger import EngineConfig, EventLog, LogInvalid
from rewardsim.money import ceil_terms, rate_ceil

# principal-flow kinds: purchases positive, reversals negative
PRINCIPAL_KINDS = frozenset({"purchase", "refund-posted", "chargeback-posted"})
REVERSAL_KINDS = frozenset({"refund-posted", "chargeback-posted"})
GRANT_KINDS = frozenset({"settle", "reconcile-settle"})
CLAW_KINDS = frozenset({"refund", "chargeback", "reconcile-clawback"})
REWARD_KINDS = GRANT_KINDS | CLAW_KINDS
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

    A reversal on day d is restored on the first day d' >= d where the
    transaction's surviving reward (granted minus clawed) fits in the
    ceiling entitlement of its remaining principal, evaluated on the log
    state as of d'.  No other transaction's events enter the verdict.

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


# The two-pass checkers, each one streaming pass over the day-sorted log.

_DAY = attrgetter("day")


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


def _by_day(log):
    """The events of ``log`` grouped by day, in day order.

    The sort is stable, so events keep log order within a day, and it
    costs O(n) on a log that is already in day order.
    """
    return groupby(sorted(log, key=_DAY), _DAY)


def _purchase_of(purchases: dict, ev):
    """``purchases``' entry for the transaction of ``ev``; ``LogInvalid``
    when it has none."""
    try:
        return purchases[ev.txn_id]
    except KeyError:
        raise _no_purchase(ev) from None


def integrity_pass(log: EventLog, config: EngineConfig) -> list[IntegritySnapshot]:
    """Integrity snapshots at every day on which anything happened.

    Each snapshot counts every event dated up to and including its day.
    Its ``bound`` is the capped entitlement of the net spend per (period,
    category): reversals count against the bucket of the original
    purchase, and each bucket's entitlement rounds up, so the bound never
    trips on the engine's own downward rounding.  The last snapshot
    answers for the whole log; an empty log has none.
    """
    terms = _CeilTerms(config)
    # (period, category) -> [spend, ceiling, *ceil_terms(rate), cap]
    buckets: dict[tuple, list] = {}
    purchases: dict[str, list] = {}  # txn_id -> the bucket of its purchase
    entitled = reward = 0
    snapshots = []
    for day, events in _by_day(log):
        for ev in events:
            _, _, kind, txn_id, _, amount, category, period = ev
            if kind == "purchase":
                if txn_id in purchases:
                    raise _duplicate_purchase(ev)
                bucket = buckets.get((period, category))
                if bucket is None:
                    bucket = buckets[period, category] = [
                        0, 0, *terms[category],
                        config.cap(category)]
                purchases[txn_id] = bucket
            elif kind in REVERSAL_KINDS:
                bucket = _purchase_of(purchases, ev)
            elif kind in REWARD_KINDS:
                _purchase_of(purchases, ev)
                reward += amount
                continue
            else:
                continue
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
    return snapshots


def rrc_pass(
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

    The clause is tested as each event of a transaction with open
    reversals posts: only its own events move its flow, so its last test
    of a day is its answer at the end of that day.
    """
    terms = _CeilTerms(config)
    # txn_id -> [*ceil_terms(rate), remaining principal, surviving reward,
    # ceiling], the ceiling being ceil(rate * remaining principal)
    flows: dict[str, list] = {}
    reversals = []  # [seq, txn_id, day, restored day or None]
    pending: dict[str, list] = {}  # txn_id -> its unresolved reversals
    ready = set()  # txns with open reversals whose reward fits
    for day, events in _by_day(log):
        for ev in events:
            seq, _, kind, txn_id, _, amount, category, _ = ev
            if kind == "purchase":
                if txn_id in flows:
                    raise _duplicate_purchase(ev)
                n, d = terms[category]
                flows[txn_id] = [n, d, amount, 0, -(n * amount // d) if amount > 0 else 0]
                continue
            if kind in REVERSAL_KINDS:
                flow = _purchase_of(flows, ev)
                principal = flow[2] = flow[2] + amount
                flow[4] = -(flow[0] * principal // flow[1]) if principal > 0 else 0
                rev = [seq, txn_id, day, None]
                reversals.append(rev)
                pending.setdefault(txn_id, []).append(rev)
            elif kind in REWARD_KINDS:
                flow = _purchase_of(flows, ev)
                flow[3] += amount
                if txn_id not in pending:
                    continue
            else:
                continue
            if flow[3] <= flow[4]:
                ready.add(txn_id)
            else:
                ready.discard(txn_id)
        for txn_id in ready:
            for rev in pending.pop(txn_id):
                rev[3] = day
        ready.clear()
    reversals.sort(key=itemgetter(0))
    return [
        # txn_id, refund_day, restored_day, ok
        tuple.__new__(RrcVerdict, (
            txn_id, day, restored,
            restored is not None and restored - day <= delta_days))
        for _, txn_id, day, restored in reversals
    ]
