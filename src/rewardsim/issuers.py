"""Issuer behavior variants and the comparative classification matrix.

Each variant is policy data over three dimensions: when a settlement
reward is credited (``instant`` or at the statement close), when a
refund claws a granted reward back (``refund_adjustment``), and whether
a clawback may drive the balance below zero (``floors_at_zero``).  The
simulation reads these fields directly; the matrix labels are derived
from them.  ``classify`` maps a standard attack battery to the
checkmark / cross / tilde labels of the comparison matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

# refund_adjustment: when (whether) granted rewards are clawed back.
# Same-cycle netting of pending refunds happens before any grant, so a
# variant that only nets same-cycle refunds (B) never adjusts a grant.
ADJ_NONE = "none"
ADJ_IMMEDIATE = "immediate"
ADJ_STATEMENT_CLOSE = "statement-close"


@dataclass(frozen=True)
class IssuerVariant:
    name: str
    instant: bool  # credit at settlement; False: at the statement close
    refund_adjustment: str
    floors_at_zero: bool = False  # clawback debt beyond the balance is dropped
    auto_redeem_at_close: bool = False
    uses_grace_hold: bool = False

    @property
    def defers_to_close(self) -> bool:
        """Whether a statement close can have work to do: False when rewards
        credit at settlement, refunds are adjusted never or at once, and
        there is neither a grace hold nor a redemption at the close."""
        return not (self.instant
                    and self.refund_adjustment in (ADJ_NONE, ADJ_IMMEDIATE)
                    and not self.uses_grace_hold
                    and not self.auto_redeem_at_close)


VARIANTS = {
    v.name: v
    for v in [
        # name, instant, refund_adjustment, then the flags that are set
        IssuerVariant("A", True, ADJ_NONE),
        IssuerVariant("B", False, ADJ_NONE, auto_redeem_at_close=True),
        IssuerVariant("C", True, ADJ_IMMEDIATE),
        IssuerVariant("D", False, ADJ_STATEMENT_CLOSE),
        IssuerVariant("E", False, ADJ_STATEMENT_CLOSE),
        IssuerVariant("F", True, ADJ_STATEMENT_CLOSE),
        IssuerVariant("V3a", True, ADJ_IMMEDIATE, floors_at_zero=True),
        IssuerVariant("defensive-instant", True, ADJ_IMMEDIATE),
        IssuerVariant("defensive-cycle", False, ADJ_STATEMENT_CLOSE,
                      uses_grace_hold=True),
    ]
}

MATRIX_VARIANTS = ["A", "B", "C", "D", "E", "F"]


def get_variant(name: str) -> IssuerVariant:
    try:
        return VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown issuer variant {name!r}; choose from {sorted(VARIANTS)}"
        ) from None


_ADJUST_LABEL = {
    ADJ_NONE: "None",
    ADJ_IMMEDIATE: "Immediate",
    ADJ_STATEMENT_CLOSE: "Stmt. close",
}


def _negative_balance_label(variant: IssuerVariant) -> str:
    # a variant that never claws back never has a negative balance to handle
    if variant.refund_adjustment == ADJ_NONE:
        return "N/A"
    return "Floored at zero" if variant.floors_at_zero else "Indefinite"


PASS = "✓"  # check mark
FAIL = "×"  # multiplication sign
PARTIAL = "~"


def classify(variant: IssuerVariant, outcomes) -> str:
    """Label a variant from its attack-battery outcomes.

    Rules (documented in matrix output):
      FAIL    - some scenario retains extracted value at quiescence
                (a refund produced zero effective clawback).
      PARTIAL - nothing is retained at quiescence, but in the same-cycle
                scenario some refund restores RRC strictly after its own
                day, so that scenario fails RRC at zero allowed lag (the
                instant-availability / batched-clawback asymmetry).
      PASS    - every refund clawed back proportionally with no
                extraction window.
    """
    if any(o.value_extracted > 0 for o in outcomes):
        return FAIL
    for o in outcomes:
        if o.timing != "same-cycle":
            continue
        if any(lag is not None and lag > 0 for lag in o.restore_lags()):
            return PARTIAL
    return PASS


CLASSIFICATION_NOTE = (
    f"{FAIL} = value retained at quiescence (zero effective clawback); "
    f"{PARTIAL} = clawback posts, but same-cycle refunds lag behind "
    "redeemable rewards (extraction float window); "
    f"{PASS} = proportional clawback with no extraction window. "
    "* balance persists indefinitely, but recovery depends on future "
    "qualifying spend."
)


def comparison_matrix(battery: dict) -> list[dict]:
    """Build matrix rows from ``battery``: variant name -> outcome list.

    Rows cover A-F in order, plus a V3a appendix row when present.
    """
    rows = []
    names = [n for n in MATRIX_VARIANTS if n in battery]
    if "V3a" in battery:
        names.append("V3a")
    for name in names:
        variant = get_variant(name)
        label = classify(variant, battery[name])
        neg = _negative_balance_label(variant)
        if name == "F":
            neg += "*"
        rows.append(
            {
                "variant": name,
                "reward_timing": "Instant" if variant.instant else "Stmt. close",
                "refund_adjustment": _ADJUST_LABEL[variant.refund_adjustment],
                "negative_balance": neg,
                "reward_integrity": label,
                "refund_reward_consistency": label,
            }
        )
    return rows


def render_matrix(rows: list[dict]) -> str:
    """Fixed-width text table; byte-stable for golden-file comparison."""
    headers = [
        ("variant", "Variant"),
        ("reward_timing", "Reward Timing"),
        ("refund_adjustment", "Refund Adjustment"),
        ("negative_balance", "Neg. Balance"),
        ("reward_integrity", "RI"),
        ("refund_reward_consistency", "RRC"),
    ]
    widths = {
        key: max(len(title), *(len(r[key]) for r in rows)) for key, title in headers
    }
    lines = [
        "  ".join(title.ljust(widths[key]) for key, title in headers).rstrip()
    ]
    for r in rows:
        lines.append(
            "  ".join(r[key].ljust(widths[key]) for key, _ in headers).rstrip()
        )
    lines.append("")
    lines.append(CLASSIFICATION_NOTE)
    return "\n".join(lines) + "\n"
