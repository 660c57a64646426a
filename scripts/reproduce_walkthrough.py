#!/usr/bin/env python3
"""Step through the settle / refund / refund example and print each state."""

from fractions import Fraction

from rewardsim import (
    EngineConfig,
    EventLog,
    Transaction,
    UserLedger,
    format_usd,
    reward_on_refund,
    reward_on_settlement,
)


def show(step: str, txn, record, ledger) -> None:
    print(
        f"{step:<24} original={format_usd(record.reward_original):>7} "
        f"current={format_usd(record.reward_current):>7} "
        f"balance={format_usd(ledger.balance):>7} status={txn.status.value}"
    )


def main() -> None:
    cfg = EngineConfig(reward_rate={"GROCERY": Fraction(5, 100)})
    ledger, records, log = UserLedger(), {}, EventLog()
    txn = Transaction(id="t1", user="u1", amount=100_00,
                      category="GROCERY", period=0)

    reward_on_settlement(ledger, records, txn, cfg, log, day=1)
    show("settle $100.00 at 5%", txn, records["t1"], ledger)

    reward_on_refund(ledger, records, txn, 50_00, cfg, log, 3, current_period=0)
    show("refund $50.00", txn, records["t1"], ledger)

    reward_on_refund(ledger, records, txn, 50_00, cfg, log, 5, current_period=0)
    show("refund $50.00", txn, records["t1"], ledger)

    print()
    print("event log:")
    for ev in log:
        print("  " + ev.to_json_line())


if __name__ == "__main__":
    main()
