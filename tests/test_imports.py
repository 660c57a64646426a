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
``engine`` and ``ledger`` write a transaction's status or reward state,
and that no module changes an ``EngineConfig`` after its constructor: a
loaded scenario's config is shared with every other of equal config.
And that every ``functools`` cache on a function with parameters is
typed: ``1``, ``1.0`` and ``True`` are one untyped key.  And that no
function takes a parameter it never reads: a step takes what it uses."""

import ast
import pathlib
import subprocess
import sys

import pytest

import rewardsim
from rewardsim import EngineConfig
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


# a config's fields, and those that hold a dict, whose items are part of it
CONFIG_FIELDS = frozenset(EngineConfig._fields)
CONFIG_MAPS = frozenset({"reward_rate", "monthly_cap"})
DICT_CHANGES = frozenset({"clear", "pop", "popitem", "setdefault", "update"})


def config_writes(source: str) -> list:
    """The line of each store to or deletion of an attribute named in
    ``CONFIG_FIELDS``, and of each assignment into or change of a
    ``reward_rate`` or ``monthly_cap`` dict, in ``source``: all but those
    in ``EngineConfig.__init__`` and ``Simulation``'s own ``self.variant``,
    an IssuerVariant."""
    lines = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if scope[:2] == ("EngineConfig", "__init__"):
            return
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            if node.attr in CONFIG_FIELDS and not (
                    scope[:1] == ("Simulation",) and node.attr == "variant"
                    and getattr(node.value, "id", None) == "self"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            if getattr(node.value, "attr", None) in CONFIG_MAPS:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (node.func.attr in DICT_CHANGES
                    and getattr(node.func.value, "attr", None) in CONFIG_MAPS):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(lines)


def test_config_writes_finds_each_change_of_a_config():
    source = ("config.b_min = 1\n"
              "sc.config.variant = 'A'\n"
              "cfg.grace_days += 1\n"
              "config.reward_rate['G'] = rate\n"
              "del config.monthly_cap['G']\n"
              "config.monthly_cap.update(caps)\n"
              "class EngineConfig:\n"
              "    def __init__(self):\n"
              "        self.b_min = 0\n"
              "    def other(self):\n"
              "        self.b_min = 0\n"
              "class Simulation:\n"
              "    def __init__(self, config):\n"
              "        self.variant = get_variant(config.variant)\n"
              "        config.variant = 'A'\n"
              "rate = config.reward_rate['G']\n"
              "rates['G'] = config.b_min\n")
    assert config_writes(source) == [1, 2, 3, 4, 5, 6, 11, 15]


def test_no_module_changes_a_config():
    found = [f"{path.name}:{line}"
             for path in sorted((SRC / "rewardsim").glob("*.py"))
             for line in config_writes(path.read_text(encoding="utf-8"))]
    assert found == []


CACHES = frozenset({"cache", "lru_cache"})


def untyped_caches(source: str) -> list:
    """The line of each ``cache`` or ``lru_cache`` decorator in ``source``
    on a function that takes parameters, unless it passes ``typed=True``
    (or ``True`` as ``lru_cache``'s second argument)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if not (args.posonlyargs or args.args or args.vararg or args.kwonlyargs
                or args.kwarg):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            if getattr(target, "attr", getattr(target, "id", None)) not in CACHES:
                continue
            typed = call and (
                any(kw.arg == "typed" and getattr(kw.value, "value", None) is True
                    for kw in call.keywords)
                or len(call.args) > 1 and getattr(call.args[1], "value", None) is True)
            if not typed:
                lines.append(decorator.lineno)
    return sorted(lines)


def test_untyped_caches_finds_each_cache_that_is_not_typed():
    source = ("@functools.cache\n"
              "def a(x): pass\n"
              "@cache\n"
              "def b(): pass\n"
              "@lru_cache(maxsize=4)\n"
              "def c(x): pass\n"
              "@functools.lru_cache(maxsize=4, typed=True)\n"
              "def d(x): pass\n"
              "@lru_cache(4, True)\n"
              "def e(*args): pass\n"
              "@functools.lru_cache\n"
              "def f(*, key): pass\n"
              "@lru_cache(typed=False)\n"
              "def g(**kw): pass\n"
              "class K:\n"
              "    @functools.cache\n"
              "    def h(self): pass\n"
              "@functools.wraps(a)\n"
              "def i(x): pass\n")
    assert untyped_caches(source) == [1, 5, 11, 13, 16]


def test_every_cache_of_a_function_with_parameters_is_typed():
    found = [f"{path.name}:{line}"
             for path in sorted((SRC / "rewardsim").glob("*.py"))
             for line in untyped_caches(path.read_text(encoding="utf-8"))]
    assert found == []


def unread_parameters(source: str) -> list:
    """``function.parameter`` for each parameter of a function or lambda
    in ``source`` that its body never reads, nested functions included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if arg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for statement in body for name in ast.walk(statement)
                if isinstance(name, ast.Name)}
        function = getattr(node, "name", "<lambda>")
        found += [f"{function}.{param}" for param in params if param not in read]
    return found


def test_unread_parameters_finds_each_parameter_never_read():
    source = ("def a(x, y=1, *args, z, **kw):\n"
              "    return x + z\n"
              "def b(p, /, q):\n"
              "    def inner():\n"
              "        return p\n"
              "    return inner\n"
              "class K:\n"
              "    def m(self, unused):\n"
              "        return self\n"
              "f = lambda u, v: u\n")
    assert unread_parameters(source) == [
        "a.y", "a.args", "a.kw", "b.q", "m.unused", "<lambda>.v"]


# perfbench/workloads.py calls classify(variant, outcomes) positionally,
# and the benchmark's files change only in a change of their own, so
# the parameter stays until perfbench calls classify with the outcomes
# alone
UNREAD_KEPT = {"issuers.py": ["classify.variant"]}


@pytest.mark.parametrize("path", sorted((SRC / "rewardsim").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_function_takes_a_parameter_it_never_reads(path):
    found = unread_parameters(path.read_text(encoding="utf-8"))
    assert found == UNREAD_KEPT.get(path.name, [])
