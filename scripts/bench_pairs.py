#!/usr/bin/env python3
"""Run alternating parent/change pairs of one benchmark workload and
record them in ``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py --pr N --workload audit --seed 523 \\
        --pairs 10 --claim scenario_p50_ms
    python3 scripts/bench_pairs.py --pr N --workload sweep --seed 523 --pairs 3
    python3 scripts/bench_pairs.py --pr N --workload audit --seed 523 \\
        --pairs 3 --seconds 10 --trace 1

Run from the repository root; only the standard library and ``git`` are
used.  The parent is ``HEAD`` exported with ``git archive``, so the tree
holds every committed file, test fixtures included.  The change is a copy
of the checkout's files as they are: tracked, and untracked but not
ignored.  Both trees are built under ``.bench_build/``
and each run is ``perfbench/run.py`` in its own tree, one at a time.
Pair ``i`` runs the parent first when ``i`` is even and the change first
when it is odd.  Every run has ``PYTHONDONTWRITEBYTECODE=1``, so neither
tree caches compiled sources and each import probe compiles them, whatever
the caller's environment.

Each call adds one workload to ``BENCH_<pr>.json``, or replaces it:
untraced runs under ``runs`` and ``summary`` (per end-to-end metric of
``BENCHMARK.json``: the medians and quartiles of both sides, the change
in percent, the pairs the change won and ``within_bound``, whether the
change's median is worse than the parent's by no more than the metric's
``bound``; and the medians of ``setup_s``'s two parts, ``import_s`` and
``inputs_s``), traced runs under ``trace``
(the median of every per-layer metric; its times are raw wall seconds,
since perfbench scales only the end-to-end timings by its gauge).  Both
record in ``digests_match`` whether the two sides of every pair wrote the
same output digest.  ``--claim`` names the metric the change claims to
improve on this workload.  ``src_lines`` holds the lines of
``src/**/*.py`` in the parent and the change trees, the net line delta
every change states.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("parent", "change")
# the parts of setup_s that every result document records under "setup"
SETUP_PARTS = ("import_s", "inputs_s")
# perfbench scales its end-to-end timings by its host-speed gauge, but a
# traced per-layer time is wall seconds divided only by the scenario count
TRACE_TIMINGS = ("raw wall seconds, not scaled by perfbench's gauge; compare "
                 "the sides only where their host_slowdown readings match")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written to ``dest``."""
    with zipfile.ZipFile(io.BytesIO(git("archive", "--format=zip", rev))) as zf:
        zf.extractall(dest)


def copy_checkout(dest: Path) -> None:
    """The checkout's tracked and untracked, not ignored, files."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file may be deleted in the checkout
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def fresh(side: str) -> Path:
    dest = BUILD / side
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    return dest


def src_lines(trees: dict) -> dict:
    """The lines of ``src/**/*.py`` in each side's tree, also printed
    with their difference."""
    lines = {side: sum(path.read_bytes().count(b"\n")
                       for path in (tree / "src").rglob("*.py"))
             for side, tree in trees.items()}
    print(f"src/ lines: {lines['parent']} -> {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})", flush=True)
    return lines


def run_once(tree: Path, argv: list, name: str) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result document."""
    result = tree / ".bench_work" / "results" / name
    result.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0 or not result.is_file():
        sys.exit(f"error: run in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def digests_match(runs: list) -> bool:
    """Whether both sides of every pair wrote the same output digest."""
    return all(r["parent"]["output_sha256"] == r["change"]["output_sha256"]
               for r in runs)


def within_bound(parent: float, change: float, metric: dict) -> bool:
    """Whether ``change`` is worse than ``parent`` by at most the metric's
    ``bound``, a share of the parent's value, in its ``better`` direction."""
    slack = abs(parent) * metric["bound"]
    if metric["better"] == "lower":
        return change <= parent + slack
    return change >= parent - slack


def summarise(runs: list, spec: dict) -> dict:
    """Medians, quartiles and wins of each end-to-end metric over ``runs``."""
    summary = {
        "pairs": len(runs),
        "digests_match": digests_match(runs),
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
        "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in SIDES},
    }
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in SIDES}
        parent, change = (statistics.median(values[side]) for side in SIDES)
        summary[name] = {
            "parent_median": parent,
            "parent_quartiles": quartiles(values["parent"]),
            "change_median": change,
            "change_quartiles": quartiles(values["change"]),
            "change_pct": (change - parent) / parent * 100 if parent else 0.0,
            "change_wins": sum((c < p) if lower else (c > p)
                               for p, c in zip(values["parent"], values["change"])),
            "within_bound": within_bound(parent, change, metric),
        }
    summary["setup"] = {
        part: {f"{side}_median": statistics.median(r[side]["setup"][part] for r in runs)
               for side in SIDES}
        for part in SETUP_PARTS
    }
    return summary


def host_line(prov: dict) -> str:
    return (f"{prov['nproc']} CPUs, {prov['platform']}, Python {prov['python']}; "
            "end-to-end timings scaled by perfbench's gauge, traced per-layer "
            "times in raw wall seconds")


def trace_medians(runs: list, command: str) -> dict:
    return {
        "command": command,
        "timings": TRACE_TIMINGS,
        "pairs": len(runs),
        "digests_match": digests_match(runs),
        "median": {side: {name: statistics.median(r[side]["metrics"][name]["value"]
                                                  for r in runs)
                          for name in runs[0][side]["metrics"]}
                   for side in SIDES},
        "host_slowdown": {side: [r[side]["host_slowdown"] for r in runs]
                          for side in SIDES},
    }


def report(workload: str, summary: dict, spec: dict) -> None:
    print(f"{workload}: {summary['pairs']} pairs, failed ops "
          f"{summary['failed']['parent']} -> {summary['failed']['change']}, "
          f"output digests {'equal' if summary['digests_match'] else 'differ'}")
    for metric in spec["end_to_end"]:
        m = summary[metric["name"]]
        q1, q3 = m["parent_quartiles"]
        print(f"  {metric['name']:18s} {m['parent_median']:12.6g} -> "
              f"{m['change_median']:12.6g}  {m['change_pct']:+7.2f}%  "
              f"wins {m['change_wins']}/{summary['pairs']}  parent IQR {q3 - q1:.4g}  "
              f"{'within' if m['within_bound'] else 'OUTSIDE'} bound "
              f"{metric['bound']:.0%}")
    print("  setup_s parts     " + "  ".join(
        f"{part} {m['parent_median']:.6g} -> {m['change_median']:.6g}"
        for part, m in summary["setup"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=" ".join(__doc__.split("\n\n")[0].split()))
    parser.add_argument("--pr", required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--claim", metavar="METRIC",
                        help="the end-to-end metric this workload's gain is claimed on")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for flag, value, known in (
        ("--workload", args.workload, [w["name"] for w in spec["workloads"]]),
        ("--claim", args.claim, [m["name"] for m in spec["end_to_end"]]),
    ):
        if value is not None and value not in known:
            parser.error(f"{flag} must be one of {', '.join(known)}, got {value!r}")

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    run_argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", f"{seconds:g}", "--trace", str(args.trace)]
    command = " ".join(["python3", "perfbench/run.py", *run_argv])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    trees = {side: fresh(side) for side in SIDES}
    export("HEAD", trees["parent"])
    copy_checkout(trees["change"])
    lines = src_lines(trees)

    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], run_argv, name)
        runs.append(pair)
        print(f"pair {i + 1}/{args.pairs} done"
              + ("" if digests_match([pair]) else ": output digests differ"),
              flush=True)

    out = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.is_file() else {}
    prov = runs[0]["parent"]["provenance"]
    doc["what"] = ("Alternating parent/change pairs of perfbench/run.py on the parent "
                   "commit and on this change, each run in its own copy of the tree.")
    doc["parent_commit"] = git("rev-parse", "HEAD").decode().strip()
    doc["src_lines"] = lines
    doc["host"] = host_line(prov)
    if args.claim:
        doc["claim"] = {"metric": args.claim, "workload": args.workload,
                        "command": command}
    if args.trace:
        doc.setdefault("trace", {})[args.workload] = trace_medians(runs, command)
    else:
        summary = summarise(runs, spec)
        doc.setdefault("summary", {})[args.workload] = summary
        doc.setdefault("runs", {})[args.workload] = runs
        report(args.workload, summary, spec)
    out.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {os.path.relpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
