#!/usr/bin/env python3
"""Run one rewardsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Run from the root of a rewardsim checkout; the program is imported from
its ``src`` directory.  The load is a closed loop: one process, one
thread, each scenario started after the previous one finished.  Set-up
(importing rewardsim, generating, writing and loading the seeded
inputs) is repeated and timed apart from the measured passes.  Passes
over the inputs repeat for about ``--seconds``; every output is
checked, and a wrong one counts as a failed op.  Timings are scaled to
the reference speed of a host-speed gauge read between the ops (see
``gauge.py``), so a slow stretch of a shared host cancels out.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1``
untraced passes alternate with passes under the layer wrappers, and
the run reports the per-layer metrics, including the tracing overhead.  Lines above the last one are a readable report with
units, sample counts, stage timings, output digest and provenance; the
same data is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5

# Times the import in a fresh interpreter, then scales it by the gauge
# read in that interpreter (the child may run on another vCPU than the
# parent): the median of five readings after one warm-up.  The gauge is
# imported after the timed import, so the modules it shares with
# rewardsim (json, fractions, dataclasses) are still timed.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import rewardsim, rewardsim.cli\n"
    "seconds = time.perf_counter() - t\n"
    "from perfbench import gauge\n"
    "gauge.read()\n"
    "readings = sorted(gauge.read() for _ in range(5))\n"
    "print(seconds * gauge.NOMINAL_S / readings[2])\n"
)


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def units(spec: dict, kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the
    samples at or below it (the maximum when there are few samples)."""
    ordered = sorted(values)
    rank = max(1, -int(-q * len(ordered) // 1))
    return ordered[min(rank, len(ordered)) - 1]


def import_seconds() -> float:
    """Import time of rewardsim in a fresh interpreter, timed inside it,
    at the gauge's reference speed."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rewardsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload, scenarios: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scenarios_per_pass": scenarios,
        "events_per_pass": workload.events,
    }


def one_pass(workload, tally) -> None:
    tally.start_pass()
    workload.run_pass(tally, first=len(tally.passes) == 1)
    tally.tick()
    workload.hashed = True


def setup_seconds(workload) -> float:
    """One set-up of the inputs, at the gauge's reference speed: wall
    time scaled by a gauge reading before and after it."""
    from perfbench import gauge

    before = gauge.read()
    t0 = perf_counter()
    workload.setup()
    seconds = perf_counter() - t0
    return seconds * gauge.NOMINAL_S * 2 / (before + gauge.read())


def measure(workload, seconds: float, tracer=None) -> tuple:
    """Repeat passes over the workload's inputs for about ``seconds``.

    A round that would not finish in the time left is not started, so a
    run never overshoots by a whole round; the first round always runs.
    With a tracer, each round is one untraced and one traced pass, so
    both see the same host conditions.  Returns the untraced and the
    traced tally.
    """
    from perfbench.workloads import Tally

    plain, traced = Tally(), Tally()
    if tracer is not None:
        tracer.tally = traced
    start = perf_counter()
    while True:
        t0 = perf_counter()
        one_pass(workload, plain)
        if tracer is not None:
            tracer.install()
            try:
                one_pass(workload, traced)
            finally:
                tracer.uninstall()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return plain, traced


def end_to_end(tally, setup_s: float) -> dict:
    typical = tally.typical_ms()
    return {
        "setup_s": setup_s,
        "scenarios_per_s": len(typical) * 1000 / sum(typical),
        "scenario_p50_ms": statistics.median(typical),
        "scenario_p99_ms": percentile(typical, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(workload, seconds: float, layer_names: list) -> tuple:
    """Per-layer metrics from alternating untraced and traced passes,
    with the tracing overhead; returns both tallies, the metrics and
    the tracer."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    plain, tally = measure(workload, seconds, tracer)
    metrics = tracer.layer_metrics(layer_names, tally.count, tally.raw_s)
    plain_p50 = statistics.median(plain.typical_ms())
    traced_p50 = statistics.median(tally.typical_ms())
    metrics["trace.overhead_ms"] = traced_p50 - plain_p50
    metrics["trace.overhead_share"] = (traced_p50 - plain_p50) / plain_p50
    return plain, tally, metrics, tracer


def run(args, sizes: dict | None = None) -> dict:
    """Set up and measure one workload; the result holds every metric,
    the checks' outcome, the output digest and provenance."""
    from perfbench import gauge, workloads

    import rewardsim

    if SRC not in Path(rewardsim.__file__).resolve().parents:
        raise SystemExit(f"rewardsim was imported from {rewardsim.__file__}, "
                         f"not from {SRC}")
    spec = load_spec()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                      **(sizes or {}))
        setup_times = [setup_seconds(workload) for _ in range(SETUP_REPEATS)]
        import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        extra = {}
        if args.trace:
            kind = "per_layer"
            plain, tally, metrics, tracer = layer_metrics(
                workload, args.seconds, list(units(spec, kind)))
            spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            extra = {"spans_kept": tracer.write_spans(spans_path),
                     "spans_file": str(spans_path.relative_to(ROOT)),
                     "wait_s": 0.0}
            attempted = plain.attempted + tally.attempted
            failed = plain.failed + tally.failed
        else:
            kind = "end_to_end"
            tally, _ = measure(workload, args.seconds)
            metrics = end_to_end(tally, setup_s)
            attempted, failed = tally.attempted, tally.failed
        unit_of = units(spec, kind)
        if set(metrics) != set(unit_of):
            raise SystemExit(f"metrics {sorted(metrics)} do not match the "
                             f"{kind} list of {SPEC.name}")
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in unit_of.items()},
            "scenarios": len(tally.passes[0]),
            "passes": len(tally.passes),
            # reported, not a BENCHMARK.json metric: raw wall time measures
            # the host as much as the program
            "wall_scenario_p50_ms": statistics.median(tally.typical_ms(raw=True)),
            "host_slowdown": statistics.median(tally.refs) / gauge.NOMINAL_S,
            "stages_s": tally.stage_s(),
            "setup": {"repeats": SETUP_REPEATS,
                      "import_s": statistics.median(import_times),
                      "inputs_s": statistics.median(setup_times)},
            "output_sha256": workload.digest.hexdigest(),
            "provenance": provenance(args, workload, len(tally.passes[0])),
            "why": why[args.workload],
            **extra,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(result: dict) -> None:
    prov = result["provenance"]
    print(f"rewardsim benchmark: workload {prov['workload']}, seed {prov['seed']}, "
          f"{prov['seconds']} s, tracing {'on' if prov['trace'] else 'off'}")
    print(f"  {result['why']}")
    print(f"  python {prov['python']} ({prov['implementation']}), nproc {prov['nproc']}, "
          f"{prov['platform']}")
    print(f"  commit {prov['commit'] or 'unknown'}, "
          f"source sha256 {prov['source_sha256'][:16]}")
    print(f"  inputs: {result['scenarios']} scenarios, {prov['events_per_pass']} "
          f"events per pass; {result['passes']} passes")
    print(f"  output_sha256 {result['output_sha256']}")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    per = f"n={result['scenarios']} scenarios, median of {result['passes']} passes"
    print(f"  timings at the gauge's reference speed; this run's host was "
          f"{result['host_slowdown']:.3f}x slower (median gauge reading)")
    for name, m in result["metrics"].items():
        if name == "setup_s":
            n = f"median of {SETUP_REPEATS} set-ups"
        elif name == "peak_rss_mb":
            n = "whole run"
        elif m["unit"] in ("ms", "1/s"):
            n = per
        else:
            n = f"{result['passes']} passes"
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:6s} {n}")
    print(f"  {'wall_scenario_p50_ms (not scaled)':42s} "
          f"{result['wall_scenario_p50_ms']:>14.6g} ms     {per}")
    for name, value in result["stages_s"].items():
        print(f"  stage {name:36s} {value:>14.6g} s      median pass")
    if "wait_s" in result:
        print("  wait_s 0 by construction: one thread, no queues or locks")


def main(argv=None) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="rewardsim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rewardsim" / "__init__.py").is_file():
        print(f"error: no rewardsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(SRC))

    result = run(args)
    print_report(result)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=2, ensure_ascii=False) + "\n")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
