"""Exact integer money arithmetic in minor currency units (cents).

All ledger state is plain Python ints.  Fractional quantities (reward
rates) are `fractions.Fraction`; the only divisions that touch ledger
values happen here, each with a single terminal rounding, or on the
integer terms that ``ceil_terms`` gives for ``rate_ceil``'s division.
"""

from __future__ import annotations

from fractions import Fraction


def mul_fraction(numer_amount: int, base: int, of: int) -> int:
    """Round-half-even of (numer_amount * of) / base: the share
    `numer_amount / base` of `of`.  Exact when the division is exact.

    The engine's clawback does not use it: a claw rounds up, so no
    rounding leaves the user more than the rate.
    """
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    if not 0 <= numer_amount <= base:
        raise ValueError(f"numer_amount {numer_amount} outside [0, {base}]")
    if of < 0:
        raise ValueError(f"of must be non-negative, got {of}")
    q, r = divmod(numer_amount * of, base)
    # round half to even on the remainder
    if 2 * r > base or (2 * r == base and q % 2 == 1):
        q += 1
    return q


def rate_floor(rate: Fraction, amount: int) -> int:
    """Largest whole number of minor units not exceeding rate * amount.

    Settlement rewards round down so the granted reward never exceeds
    the published entitlement.
    """
    # a Fraction's denominator is positive: its sign is its numerator's,
    # and reading it skips Fraction's slow rich comparison; each read of
    # ``numerator`` is a Python-level property call, so it is read once
    n = rate.numerator
    if n < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    return (n * amount) // rate.denominator


def rate_ceil(rate: Fraction, amount: int) -> int:
    """Smallest whole number of minor units not below rate * amount."""
    n = rate.numerator
    if n < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    return -((-n * amount) // rate.denominator)


def ceil_terms(rate: Fraction) -> tuple[int, int]:
    """The integer terms ``(n, d)`` of ``rate`` for which ``rate_ceil(rate,
    amount)`` is ``-((n * amount) // d)``: ``(-numerator, denominator)``,
    for a loop that takes the ceiling of one rate many times."""
    n = rate.numerator
    if n < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    return -n, rate.denominator


def format_usd(minor: int) -> str:
    """Format minor units as a dollar string, e.g. -250 -> '-$2.50'."""
    sign = "-" if minor < 0 else ""
    whole, cents = divmod(abs(minor), 100)
    return f"{sign}${whole:,}.{cents:02d}"
