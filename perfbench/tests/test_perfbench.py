"""Tests of the benchmark itself: smoke runs, generator determinism, and
that wrong program output is counted as failed ops.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import generators as gen  # noqa: E402
from perfbench import run as bench  # noqa: E402

SPEC = bench.load_spec()

# Sizes small enough to run every workload in a few seconds.
TINY = {
    "audit": {"purchases": 40, "days": 120},
    "long-account": {"purchases": 150, "days": 400},
    "sweep": {"count": 40},
    "attack-grid": {"sizes": 1, "cycles": 3},
}


def run_tiny(workload: str, trace: int = 0, seed: int = 3) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0,
                              trace=trace)
    return bench.run(args, sizes=TINY[workload])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = run_tiny(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = bench.units(SPEC, "end_to_end" if trace == 0 else "per_layer")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["provenance"]["events_per_pass"] > 0


def test_output_digest_repeats_per_seed_and_differs_across_seeds():
    first = run_tiny("sweep", seed=5)["output_sha256"]
    assert run_tiny("sweep", seed=5)["output_sha256"] == first
    assert run_tiny("sweep", seed=6)["output_sha256"] != first


def test_traced_run_counts_layers_where_they_run():
    audit = run_tiny("audit", trace=1)["metrics"]
    assert audit["invariants.check_rrc.s"]["value"] > 0
    assert audit["cli.main.self_s"]["value"] > 0
    assert audit["adversary.run_ddra.self_s"]["value"] == 0
    grid = run_tiny("attack-grid", trace=1)["metrics"]
    assert grid["adversary.run_ddra.self_s"]["value"] > 0
    assert grid["issuers.render_matrix.s"]["value"] > 0
    sweep = run_tiny("sweep", trace=1)["metrics"]
    assert sweep["invariants.log_passes"]["value"] == 2.0  # two oracle passes


def test_parts_are_scaled_by_the_gauge_readings_around_them(monkeypatch):
    from perfbench import gauge
    from perfbench.workloads import Tally

    readings = iter([gauge.NOMINAL_S, 3 * gauge.NOMINAL_S])
    monkeypatch.setattr(gauge, "read", lambda: next(readings))
    monkeypatch.setattr(gauge, "CHUNK_S", 1e9)  # read only where the test says
    tally = Tally()
    tally.start_pass()
    tally.part(0.010, "run_s")
    tally.part(0.002, "matrix_s", scenario=False)
    tally.close()
    tally.tick()
    # host twice as slow as the reference over the chunk: half the wall time
    assert tally.typical_ms() == pytest.approx([5.0])
    assert tally.typical_ms(raw=True) == pytest.approx([10.0])
    assert tally.stage_s() == pytest.approx({"matrix_s": 0.001, "run_s": 0.005})


@pytest.mark.parametrize("make", [
    lambda seed: gen.heavy_account(seed, 60, 200, "defensive-cycle"),
    lambda seed: gen.sweep_scenarios(seed, 30),
    lambda seed: gen.attack_grid(seed, 3, 12),
])
def test_generators_are_deterministic_per_seed(make):
    assert gen.dumps(make(11)) == gen.dumps(make(11))
    assert gen.dumps(make(11)) != gen.dumps(make(12))


def test_sweep_generator_matches_the_acceptance_distribution():
    import random

    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    ours, theirs = random.Random(9), random.Random(9)
    for i in range(200):
        variant = ("defensive-instant", "defensive-cycle")[i % 2]
        sc, refunds = gen.random_scenario(ours, variant)
        ref, ref_refunds = acceptance._random_scenario(theirs, variant)
        assert sc == ref.to_json_dict()
        assert refunds == ref_refunds


def test_tampered_log_byte_counts_as_failed_op(monkeypatch):
    from rewardsim.ledger import EventLog

    write = EventLog.write_jsonl
    tampered = []

    def write_then_tamper(self, path):
        write(self, path)
        if tampered:
            return
        data = bytearray(Path(path).read_bytes())
        at = data.index(b'"amount_minor": ', data.index(b'settle"')) + 16
        data[at] = ord("9") if data[at] != ord("9") else ord("8")
        Path(path).write_bytes(bytes(data))
        tampered.append(path)

    monkeypatch.setattr(EventLog, "write_jsonl", write_then_tamper)
    result = run_tiny("audit")
    assert tampered
    assert result["failed"] == 1
    assert result["correct"] is False


def test_wrong_label_counts_as_failed_op(monkeypatch):
    from rewardsim import issuers

    monkeypatch.setattr(issuers, "classify", lambda variant, outcomes: issuers.PASS)
    result = run_tiny("attack-grid")
    # A, B, F and V3a batteries, plus the matrix text against the golden file
    assert result["failed"] == 5
    assert result["correct"] is False


def test_oracle_breach_counts_as_failed_op(monkeypatch):
    from rewardsim import invariants

    monkeypatch.setattr(invariants, "oracle_bound", lambda log, config: -1)
    result = run_tiny("sweep")
    assert result["failed"] == result["attempted"]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
