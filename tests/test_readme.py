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


def claim_rows() -> list:
    """(command, status, item, test) of each row of README's claims table."""
    rows = re.findall(r"^\| (.+?) \| `rewardsim (.+?)` \| (.+?) \| (.+?) \| `(.+?)` \|$",
                      section("Paper claims"), re.M)
    return [(command, status, item, test) for _, command, status, item, test in rows]


def test_paper_claims_table_agrees_with_the_claims_ledger(monkeypatch):
    import test_paper_claims as ledger

    rows = claim_rows()
    tests = [name for name in vars(ledger) if name.startswith("test_")]
    assert sorted(test for *_, test in rows) == sorted(tests)
    monkeypatch.chdir(ROOT)
    for command, status, item, test in rows:
        marks = [mark for mark in getattr(getattr(ledger, test), "pytestmark", [])
                 if mark.name == "xfail"]
        if status == "shown":
            assert (marks, item) == ([], "—"), test
        else:
            (mark,) = marks
            assert status in ("partly", "not yet"), test
            assert mark.kwargs["strict"] is True, test
            assert f"ROADMAP item {item})" in mark.kwargs["reason"], test
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(shlex.split(command)) in (0, 2), command
