"""Command-line front end.

Exit codes are part of the contract: 0 clean, 1 for usage, input or IO
problems, 2 when a simulation or log fails an invariant (or an attack
extracts value), so the tool can gate CI pipelines.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .adversary import (
    ATTACK_CAP_MINOR,
    SAME_CYCLE,
    TIMINGS,
    DEFAULT_CYCLES,
    DEFAULT_PURCHASE_MINOR,
    run_battery,
    run_ddra,
)
from .harness import (
    Scenario,
    default_consistency_window,
    format_millions,
    leakage_estimate,
    run,
)
from .invariants import check_rrc, integrity_series
from .issuers import MATRIX_VARIANTS, comparison_matrix, render_matrix
from .ledger import ConfigError, EngineConfig, EventLog, _long_integer, load_json
from .money import format_usd

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

# impact's estimate when --p or --users is not given
DEFAULT_ABUSE_RATE = "0.01"
DEFAULT_USERS = 1_000_000


def _load_config(path) -> EngineConfig:
    return EngineConfig.from_json_dict(load_json(path, ConfigError, "config"))


def _violations(snapshots, verdicts, lag_note: str = "") -> list[str]:
    """One line per failed check: each failing integrity snapshot, then
    each failing RRC verdict.  An empty list means every check passed."""
    lines = [
        f"INTEGRITY VIOLATION day {s.day}: net reward "
        f"{format_usd(s.net_reward)} exceeds bound {format_usd(s.bound)}"
        for s in snapshots if not s.ok
    ]
    for v in verdicts:
        if not v.ok:
            where = "never" if v.restored_day is None else f"day {v.restored_day}"
            lines.append(f"CONSISTENCY VIOLATION txn {v.txn_id}: refund on day "
                         f"{v.refund_day} restored {where}{lag_note}")
    return lines


def cmd_simulate(args) -> int:
    scenario = Scenario.load(args.scenario)
    report = run(scenario)
    if args.log_out:
        report.log.write_jsonl(args.log_out)
    doc = report.to_json_dict() if args.out or args.format == "json" else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    violations = _violations(report.snapshots, report.rrc)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"scenario: {report.label}")
        print(f"variant: {scenario.config.variant}")
        print(f"events logged: {len(report.log)}")
        print(f"net spend: {format_usd(report.net_spend)}")
        print(f"balance: {format_usd(report.ledger.balance)}")
        print(f"redeemed: {format_usd(report.ledger.redeemed_total)}")
        print(f"net reward: {format_usd(report.net_reward)}")
        print("\n".join(violations or ["invariants: ok"]))
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_attack(args) -> int:
    outcome = run_ddra(
        args.issuer,
        timing=args.timing,
        purchase_minor=args.purchase,
        cycles=args.cycles,
    )
    print(f"issuer: {outcome.variant}  strategy: ddra  timing: {outcome.timing}")
    print(f"cycles: {outcome.cycles}  purchase: {format_usd(outcome.purchase_minor)}")
    print(f"final net spend: {format_usd(outcome.net_spend_final)}")
    print(f"redeemed: {format_usd(outcome.redeemed_minor)}  "
          f"balance: {format_usd(outcome.balance_minor)}")
    print(f"value extracted: {format_usd(outcome.value_extracted)}")
    if outcome.value_extracted > 0:
        print("RESULT: attack succeeds, value survives quiescence")
        return EXIT_VIOLATION
    lags = [l for l in outcome.restore_lags() if l is not None and l > 0]
    if lags:
        # a clawback that outran the balance is debt, recovered only from
        # future qualifying spend
        print(
            f"WARNING: clawback lags refunds by up to {max(lags)} days (float "
            f"window, {format_usd(max(0, -outcome.balance_minor))} still owed "
            "at quiescence)"
        )
    else:
        print("RESULT: no value extracted")
    return EXIT_OK


def cmd_matrix(args) -> int:
    battery = {name: run_battery(name) for name in MATRIX_VARIANTS}
    rows = comparison_matrix(battery)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        sys.stdout.write(render_matrix(rows))
    return EXIT_OK


def cmd_check(args) -> int:
    delta = args.delta_days
    if delta is not None and delta < 0:
        raise ValueError(f"--delta-days must be >= 0, got {delta}")
    log = EventLog.read_jsonl(args.log)
    config = _load_config(args.config)
    if delta is None:
        delta = default_consistency_window(config)
    note = f" (allowed lag {delta}d)"
    violations = _violations(integrity_series(log, config),
                             check_rrc(log, delta, config), note)
    print("\n".join(violations
                    or [f"checked {len(log)} events: invariants hold{note}"]))
    return EXIT_VIOLATION if violations else EXIT_OK


def _abuse_rate(text: str) -> Fraction:
    """The ``--p`` share, or a ValueError that names the flag."""
    refusal = f"--p must be a share in [0, 1] such as 0.01 or 1/100, got {text!r}"
    try:
        p = Fraction(text)
    except ValueError as exc:
        # int() refuses a number past the interpreter's digit limit with
        # advice to raise it, which would also echo the whole literal
        if "int_max_str_digits" in str(exc):
            raise ValueError(f"--p holds an {_long_integer()}") from None
        raise ValueError(refusal) from None
    except ZeroDivisionError:
        raise ValueError(refusal) from None
    if not 0 <= p <= 1:
        raise ValueError(refusal)
    return p


def cmd_impact(args) -> int:
    # checked before the table prints its header
    for flag, value in (("--users", args.users), ("--cap", args.cap)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    if args.table:
        for flag, value in (("--p", args.p), ("--users", args.users)):
            if value is not None:
                raise ValueError(f"{flag} does not apply to --table, "
                                 "which prints a fixed grid of rates and cohorts")
        rates = [Fraction(1, 1000), Fraction(1, 100), Fraction(5, 100)]
        cohorts = [100_000, 1_000_000, 10_000_000]
        cap = args.cap
        header = "abusers".ljust(10) + "".join(f"{u:>14,}" for u in cohorts)
        print(header)
        for p in rates:
            cells = [
                format_millions(leakage_estimate(p, u, cap)) for u in cohorts
            ]
            pct = format(Fraction(p * 100).numerator / Fraction(p * 100).denominator, "g")
            print(f"{pct + '%':<10}" + "".join(f"{c:>14}" for c in cells))
        print(f"(annual loss, $M, monthly cap {format_usd(cap)} per user)")
        return EXIT_OK
    p = DEFAULT_ABUSE_RATE if args.p is None else args.p
    users = DEFAULT_USERS if args.users is None else args.users
    loss = leakage_estimate(_abuse_rate(p), users, args.cap)
    print(
        f"annual loss: {format_usd(int(loss))} "
        f"({format_millions(loss)} $M) at abuse rate {p}, "
        f"{users:,} users, cap {format_usd(args.cap)}"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Parsing keeps no state in the parser: every call fills a new
    namespace from the defaults declared here.  The cache is kept on
    purpose: in-process callers that run ``main`` many times (the tests,
    the benchmark) skip the rebuild, and the console script, which runs
    ``main`` once, pays nothing for it.
    """
    parser = argparse.ArgumentParser(
        prog="rewardsim",
        description="Cashback reward-engine simulator and integrity checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and check invariants")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="write the full JSON report here")
    p.add_argument("--log-out", help="write the event log (JSONL) here")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="run the refund double-dip against a variant")
    p.add_argument("--issuer", required=True)
    p.add_argument("--timing", choices=list(TIMINGS), default=SAME_CYCLE)
    p.add_argument("--purchase", type=int, default=DEFAULT_PURCHASE_MINOR,
                   help="purchase size in minor units")
    p.add_argument("--cycles", type=int, default=DEFAULT_CYCLES)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("matrix", help="score all issuer variants and print the matrix")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("check", help="verify invariants over a stored event log")
    p.add_argument("--log", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--delta-days", type=int, default=None,
                   help="allowed refund-to-restoration lag (default per variant)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("impact", help="annual loss estimate for abuse at scale")
    # None until resolved: --table refuses both flags
    p.add_argument("--p", help="abuser share, e.g. 0.01 or 1/100 "
                   f"(default {DEFAULT_ABUSE_RATE})")
    p.add_argument("--users", type=int, help=f"cohort size (default {DEFAULT_USERS:,})")
    p.add_argument("--cap", type=int, default=ATTACK_CAP_MINOR,
                   help="monthly reward cap in minor units")
    p.add_argument("--table", action="store_true",
                   help="print the full rate-by-cohort grid")
    p.set_defaults(func=cmd_impact)

    return parser


def main(argv=None) -> int:
    # print text stdout's encoding cannot take as backslash escapes, as
    # Python's stderr does, rather than fail after the work is done; a
    # stream with no reconfigure, such as io.StringIO, takes any text
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    # every refusal of an input is a ValueError, json's and rewardsim's
    # alike; any other exception is a fault of the program
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # a reader gone is no input fault; stdout moves to devnull, so
        # the flush at exit cannot fail again (the ``signal`` docs' advice)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
