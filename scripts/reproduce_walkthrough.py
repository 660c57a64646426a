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
from rewardsim.invariants import net_reward_from_log


def show(step: str, txn, log, ledger) -> None:
    # the net reward read from the log, grants less clawbacks: the
    # transaction's own, as the log holds no other
    print(
        f"{step:<24} original={format_usd(txn.reward_original):>7} "
        f"current={format_usd(net_reward_from_log(log)):>7} "
        f"balance={format_usd(ledger.balance):>7} status={txn.status}"
    )


def main() -> None:
    cfg = EngineConfig(reward_rate={"GROCERY": Fraction(5, 100)})
    ledger, records, log = UserLedger(), {}, EventLog()
    txn = Transaction(id="t1", user="u1", amount=100_00,
                      category="GROCERY", period=0)

    reward_on_settlement(ledger, records, txn, cfg, log, day=1)
    show("settle $100.00 at 5%", txn, log, ledger)

    reward_on_refund(ledger, records, txn, 50_00, cfg, log, 3, current_period=0)
    show("refund $50.00", txn, log, ledger)

    reward_on_refund(ledger, records, txn, 50_00, cfg, log, 5, current_period=0)
    show("refund $50.00", txn, log, ledger)

    print()
    print("event log:")
    for ev in log:
        print("  " + ev.to_json_line())


if __name__ == "__main__":
    main()
