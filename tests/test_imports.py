"""What importing the package loads: every one of its modules, so a
command finds all it needs loaded, and neither ``dataclasses`` nor
``inspect``, which together cost more than the rest of the import.
And what ``from rewardsim import *`` exports: each name once, in order,
and every one of them defined."""

import pathlib
import subprocess
import sys

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
