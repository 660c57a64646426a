"""What importing the package loads: every one of its modules, so a
command finds all it needs loaded, and neither ``dataclasses`` nor
``inspect``, which together cost more than the rest of the import.
And what ``from rewardsim import *`` exports: each name once, in order,
and every one of them defined.  And that no module imports a name it
never uses, or compares a value with an issuer preset's name: a variant
is its policy fields, and a name is only a key of ``issuers.VARIANTS``.
And that no module imports ``enum``: a closed vocabulary, such as the
transaction statuses, is plain string constants, because on Python 3.10
and 3.11 the Enum metaclass's ``__getattr__`` makes each load of a member
several times slower than a read of a module global.  And that only
``engine`` and ``ledger`` write a transaction's status or reward state."""

import ast
import pathlib
import subprocess
import sys

import pytest

import rewardsim
from rewardsim.issuers import VARIANTS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_loads_every_module_and_no_dataclasses():
    # -S: no site-packages hook may load either module first
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import rewardsim, rewardsim.cli\n"
             "print(*sorted(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = set(proc.stdout.split())
    package = {f"rewardsim.{path.stem}" for path in (SRC / "rewardsim").glob("*.py")
               if path.stem != "__init__"}
    assert package <= loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_all_is_sorted_unique_and_resolves():
    names = rewardsim.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(rewardsim, name)] == []


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads; a name its
    ``__all__`` lists is read by ``from ... import *``."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unused_imports_finds_each_name_never_read():
    source = ("from __future__ import annotations\n"
              "import os, os.path, json as j\n"
              "from sys import argv, path\n"
              "__all__ = ['path']\n"
              "print(j.dumps(argv))\n")
    assert unused_imports(source) == ["os", "os"]


@pytest.mark.parametrize("path", sorted((SRC / "rewardsim").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def preset_comparisons(source: str) -> list:
    """The line of each comparison in ``source`` with an operand that is
    a preset name, alone or in a literal tuple, list or set."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left, *node.comparators]:
            items = (operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                     else [operand])
            if any(isinstance(item, ast.Constant) and item.value in VARIANTS
                   for item in items):
                lines.append(node.lineno)
                break
    return lines


def test_preset_comparisons_finds_each_comparison_with_a_name():
    source = ('if name == "F":\n'
              '    pass\n'
              'x = "V3a" != v or v in ("A", "B") or v in ["none"]\n'
              'y = VARIANTS["F"].instant == (name is not None)\n')
    assert preset_comparisons(source) == [1, 3, 3]


def test_no_module_compares_a_value_with_a_preset_name():
    found = [f"{path.name}:{line}"
             for path in sorted((SRC / "rewardsim").glob("*.py"))
             for line in preset_comparisons(path.read_text(encoding="utf-8"))]
    assert found == []


def imported_modules(node: ast.AST) -> list:
    """The absolute module names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_no_module_imports_enum():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "rewardsim").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if any(name.split(".")[0] == "enum" for name in imported_modules(node))]
    assert found == []


# a transaction's status and reward state, which engine and ledger own
RECORD_FIELDS = frozenset({"status", "reward_original", "total_refunded", "claw_base"})
RECORD_WRITERS = ("engine.py", "ledger.py")


def record_writes(source: str) -> list:
    """The line of each store to an attribute named in ``RECORD_FIELDS``,
    and of each call of ``transition``, in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store) and node.attr in RECORD_FIELDS:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "transition":
                lines.append(node.lineno)
    return sorted(lines)


def test_record_writes_finds_each_write_and_transition():
    source = ("txn.total_refunded = txn.amount\n"
              "transition(txn, CHARGEBACK)\n"
              "txn.claw_base += 1\n"
              "a.status, b = 1, 2\n"
              "ledger.transition(txn, SETTLED)\n"
              "amount = txn.status\n"
              "status = txn.reward_original\n")
    assert record_writes(source) == [1, 2, 3, 4, 5]


def test_only_engine_and_ledger_write_a_transaction():
    found = [f"{path.name}:{line}"
             for path in sorted((SRC / "rewardsim").glob("*.py"))
             if path.name not in RECORD_WRITERS
             for line in record_writes(path.read_text(encoding="utf-8"))]
    assert found == []
