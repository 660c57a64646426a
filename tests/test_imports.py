"""What importing the package loads: every one of its modules, so a
command finds all it needs loaded, and neither ``dataclasses`` nor
``inspect``, which together cost more than the rest of the import.
And what ``from rewardsim import *`` exports: each name once, in order,
and every one of them defined.  And that no module imports a name it
never uses."""

import ast
import pathlib
import subprocess
import sys

import pytest

import rewardsim

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
