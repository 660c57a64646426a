"""Every name the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py`` times and counts rewardsim functions and
``EventLog`` methods that it looks up by name, so a rename would
otherwise fail only when the benchmark runs.  These tests read its name
lists from the source with ``ast``, without importing it, and resolve
each name in the package.
"""

import ast
import importlib
import pathlib

import pytest

from rewardsim.ledger import EventLog

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
LISTS = ("SPAN_FUNCTIONS", "COUNT_FUNCTIONS", "SPAN_METHODS")


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


def test_traced_methods_are_defined_on_eventlog():
    # the tracer takes each method from the class's own namespace
    missing = [method for method in traced_names()["SPAN_METHODS"]
               if method not in vars(EventLog)
               or not callable(getattr(EventLog, method))]
    assert missing == []
