"""README's examples run as written and do what their comments say."""

import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

from rewardsim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language: str) -> list[str]:
    """The body of each ```language fence in README, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def section(title: str) -> str:
    """README's text from the ``## title`` heading to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else len(README)]


def test_quick_start_prints_what_its_comment_says():
    (block,) = fenced("python")
    # the comment on the print line holds what the block prints
    (expected,) = re.findall(r"^print\(.*#\s*(.+?)\s*$", block, re.M)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, env=env, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"
    assert expected == "0 True"


def test_command_line_exit_codes_match_their_comments():
    (block,) = re.findall(r"^```sh\n(.*?)^```$", section("Command line"),
                          re.M | re.S)
    commented = re.findall(r"^rewardsim (.+?)\s+#\s*exits (\d)\b", block, re.M)
    assert [argv for argv, _ in commented] == [
        "attack --issuer A --timing same-cycle",
        "attack --issuer F --timing same-cycle",
    ]
    for argv, code in commented:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(shlex.split(argv)) == int(code), argv
