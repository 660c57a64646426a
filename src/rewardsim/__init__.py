"""Deterministic cashback reward-engine simulator and integrity checker.

Integer-cent ledger core, proportional clawback with a statement-cycle
reconciliation path, a catalogue of issuer behavior variants, a refund
double-dip attack harness, and log-replay based invariant checking.
"""

from .adversary import AttackOutcome, run_battery, run_ddra
from .engine import (
    AlreadySettled,
    NonPositiveAmount,
    NonPositiveRefund,
    RedeemDecision,
    RedeemDenied,
    RefundExceedsAmount,
    can_redeem,
    redeem,
    reward_on_chargeback,
    reward_on_refund,
    reward_on_settlement,
    statement_cycle_reconcile,
)
from .harness import (
    Scenario,
    ScenarioEvent,
    ScenarioInvalid,
    Simulation,
    SimulationReport,
    format_millions,
    leakage_estimate,
    replay,
    run,
    scenario_from_log,
)
from .invariants import (
    IntegritySnapshot,
    RrcVerdict,
    check_rrc,
    integrity_series,
    net_reward,
    net_reward_from_log,
    net_spend,
    oracle_bound,
)
from .issuers import IssuerVariant, classify, comparison_matrix, get_variant, render_matrix
from .ledger import (
    ConfigError,
    EngineConfig,
    EventLog,
    IllegalTransition,
    LogInvalid,
    ParseError,
    RewardEvent,
    RewardRecord,
    SequenceGap,
    Transaction,
    TransactionStatus,
    UserLedger,
)
from .money import format_usd, mul_fraction, rate_ceil, rate_floor

__version__ = "0.1.0"

__all__ = [
    "AlreadySettled",
    "AttackOutcome",
    "ConfigError",
    "EngineConfig",
    "EventLog",
    "IllegalTransition",
    "IntegritySnapshot",
    "IssuerVariant",
    "LogInvalid",
    "NonPositiveAmount",
    "NonPositiveRefund",
    "ParseError",
    "RedeemDecision",
    "RedeemDenied",
    "RefundExceedsAmount",
    "RewardEvent",
    "RewardRecord",
    "RrcVerdict",
    "Scenario",
    "ScenarioEvent",
    "ScenarioInvalid",
    "SequenceGap",
    "Simulation",
    "SimulationReport",
    "Transaction",
    "TransactionStatus",
    "UserLedger",
    "can_redeem",
    "check_rrc",
    "classify",
    "comparison_matrix",
    "format_millions",
    "format_usd",
    "get_variant",
    "integrity_series",
    "leakage_estimate",
    "mul_fraction",
    "net_reward",
    "net_reward_from_log",
    "net_spend",
    "oracle_bound",
    "rate_ceil",
    "rate_floor",
    "redeem",
    "render_matrix",
    "replay",
    "reward_on_chargeback",
    "reward_on_refund",
    "reward_on_settlement",
    "run",
    "run_battery",
    "run_ddra",
    "scenario_from_log",
    "statement_cycle_reconcile",
]
