"""Every name the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py`` times and counts rewardsim functions and
``EventLog`` methods that it looks up by name, so a rename would
otherwise fail only when the benchmark runs.  These tests read its name
lists from the source with ``ast``, without importing it, and resolve
each name in the package.  Each traced function also keeps its parameter
list: a change that re-signs one updates ``SIGNATURES`` with the tracer.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from rewardsim.ledger import EventLog

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
LISTS = ("SPAN_FUNCTIONS", "COUNT_FUNCTIONS", "SPAN_METHODS")

# the parameters of every function in SPAN_FUNCTIONS and COUNT_FUNCTIONS
SIGNATURES = {
    ("cli", "main"): ("argv",),
    ("harness", "run"): ("scenario", "daily_snapshots"),
    ("harness", "replay"): ("log_path", "config", "label"),
    ("harness", "scenario_from_log"): ("log", "config", "label", "user"),
    ("adversary", "run_ddra"): ("variant", "timing", "purchase_minor", "cycles",
                                "refund_fraction"),
    ("issuers", "classify"): ("variant", "outcomes"),
    ("issuers", "render_matrix"): ("rows",),
    ("engine", "statement_cycle_reconcile"): (
        "ledger", "period_txns", "late_refunds", "period", "config", "log", "day",
        "grace_days", "floor_balance_at_zero", "user"),
    ("engine", "reward_on_settlement"): (
        "ledger", "txn", "config", "log", "day", "kind"),
    ("engine", "reward_on_refund"): (
        "ledger", "txn", "x", "log", "day", "current_period", "kind",
        "floor_balance_at_zero"),
    ("engine", "reward_on_chargeback"): (
        "ledger", "txn", "log", "day", "current_period", "floor_balance_at_zero"),
    ("engine", "redeem"): ("ledger", "y", "today", "config", "log", "user"),
    ("invariants", "integrity_series"): ("log", "config"),
    ("invariants", "check_rrc"): ("log", "delta_days", "config"),
    ("invariants", "oracle_bound"): ("log", "config"),
    ("invariants", "net_reward_from_log"): ("log",),
    ("invariants", "net_spend"): ("log",),
    ("money", "rate_ceil"): ("rate", "amount"),
    ("money", "rate_floor"): ("rate", "amount"),
    ("money", "mul_fraction"): ("numer_amount", "base", "of"),
    ("engine", "can_redeem"): ("ledger", "y", "today", "config"),
}


def traced_names() -> dict:
    """The literal value of each of ``LISTS`` in tracing.py, by name."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in LISTS}


def test_every_list_is_found():
    assert {name: bool(value) for name, value in traced_names().items()} == {
        name: True for name in LISTS}


@pytest.mark.parametrize("name", ["SPAN_FUNCTIONS", "COUNT_FUNCTIONS"])
def test_traced_functions_resolve(name):
    missing = [(module, function) for module, function in traced_names()[name]
               if not callable(getattr(importlib.import_module(f"rewardsim.{module}"),
                                       function, None))]
    assert missing == []


def test_traced_functions_keep_their_parameters():
    names = traced_names()
    traced = {
        (module, function): tuple(inspect.signature(getattr(
            importlib.import_module(f"rewardsim.{module}"), function)).parameters)
        for module, function in names["SPAN_FUNCTIONS"] + names["COUNT_FUNCTIONS"]}
    assert traced == SIGNATURES


def test_traced_methods_are_defined_on_eventlog():
    # the tracer takes each method from the class's own namespace
    missing = [method for method in traced_names()["SPAN_METHODS"]
               if method not in vars(EventLog)
               or not callable(getattr(EventLog, method))]
    assert missing == []
