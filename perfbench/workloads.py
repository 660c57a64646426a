"""The four benchmark workloads: set-up, one measured pass, and checks.

A workload generates its inputs from the seed and writes them to its
work directory in ``setup``; the program then receives only those files
or the objects it loads from them.  ``run_pass`` takes every input
through the workload's ops once, timing each scenario and checking
every output.  A wrong output counts the op as failed.

Ops call into rewardsim through module attributes (``harness.run``, not
a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import statistics
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from . import gauge
from . import generators as gen

ROOT = Path(__file__).resolve().parent.parent
MATRIX_GOLDEN = ROOT / "tests" / "fixtures" / "matrix_golden.txt"

# The attack configuration's published rate and monthly cap: variant A
# keeps min(floor(5% of the purchase), cap) in every same-cycle round.
ATTACK_RATE = Fraction(5, 100)
ATTACK_CAP_MINOR = 50_00

# The four-scenario DDRA battery: (timing, refunded share of the purchase).
BATTERY = [
    ("same-cycle", Fraction(1)),
    ("cross-cycle", Fraction(1)),
    ("cross-cycle", Fraction(1, 2)),
    ("control", Fraction(1)),
]


def rs(module: str):
    """A rewardsim module, looked up at call time."""
    return importlib.import_module(f"rewardsim.{module}")


@dataclass
class Tally:
    """What the measured passes of one run did.

    A scenario's latency is the sum of its *parts*, each timed
    separately.  After each part, once ``gauge.CHUNK_S`` has passed since
    the last gauge reading, the gauge is read again, and the parts timed
    since the previous reading are scaled by the mean of the two (see
    ``gauge``).  Sample storage is flat arrays, so a run's memory does
    not depend on how many passes the host's speed allowed.
    """

    passes: list = field(default_factory=list)  # per pass: ms per scenario
    raw: list = field(default_factory=list)  # the same, wall time unscaled
    stages: list = field(default_factory=list)  # per pass: stage -> s
    refs: array = field(default_factory=lambda: array("d"))  # gauge readings, s
    count: int = 0  # scenario samples so far; the tracer's op id
    attempted: int = 0
    failed: int = 0
    raw_s: float = 0.0  # wall time of every part
    _open: bool = False  # a scenario has parts and is not closed yet
    _last_ref: float = 0.0  # when the gauge was last read
    _pending: list = field(default_factory=list)  # parts not yet scaled

    def start_pass(self) -> None:
        self.passes.append(array("d"))
        self.raw.append(array("d"))
        self.stages.append(defaultdict(float))
        self.tick()

    def tick(self) -> None:
        """Read the gauge and scale the parts timed since the last reading."""
        reading = gauge.read()
        if self._pending:
            scale = gauge.NOMINAL_S * 2 / (self.refs[-1] + reading)
            scenarios, stages = self.passes[-1], self.stages[-1]
            for index, stage, seconds in self._pending:
                if index >= 0:
                    scenarios[index] += 1000 * seconds * scale
                if stage:
                    stages[stage] += seconds * scale
            self._pending.clear()
        self.refs.append(reading)
        self._last_ref = perf_counter()

    def part(self, seconds: float, stage: str = "", scenario: bool = True) -> None:
        """A timed part of the current scenario, or with ``scenario``
        off a timed stage outside every scenario."""
        index = -1
        if scenario:
            if not self._open:
                self.passes[-1].append(0.0)
                self.raw[-1].append(0.0)
                self._open = True
            index = len(self.raw[-1]) - 1
            self.raw[-1][index] += 1000 * seconds
        self._pending.append((index, stage, seconds))
        self.raw_s += seconds
        if perf_counter() - self._last_ref >= gauge.CHUNK_S:
            self.tick()

    def close(self) -> None:
        """End the current scenario's latency sample."""
        self._open = False
        self.count += 1

    def sample(self, seconds: float, stage: str = "") -> None:
        """A scenario timed in one part."""
        self.part(seconds, stage)
        self.close()

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def typical_ms(self, raw: bool = False) -> list:
        """Each distinct scenario's median latency over the passes, in ms.

        Every pass runs the same scenarios in the same order.  Latencies
        are at the gauge's reference speed unless ``raw``.
        """
        return [statistics.median(repeats)
                for repeats in zip(*(self.raw if raw else self.passes))]

    def stage_s(self) -> dict:
        """Each stage's median time per pass, at the reference speed."""
        names = sorted({name for totals in self.stages for name in totals})
        return {name: statistics.median(t[name] for t in self.stages if name in t)
                for name in names}


def cli(argv: list) -> tuple[int, str]:
    """Run one ``rewardsim`` command in-process; return its code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rs("cli").main(argv)
    return code, out.getvalue()


def log_bytes(log) -> bytes:
    return "".join(ev.to_json_line() + "\n" for ev in log.events).encode()


class Workload:
    """Base class: ``digest`` hashes the outputs of the first pass."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.hashed = False  # set once the first pass's outputs are hashed
        self.events = 0  # events logged over one pass

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tally: Tally, first: bool) -> None:
        """Take every input through the ops once.  ``first`` marks the
        first pass of a measured phase."""
        raise NotImplementedError

    def recording(self, first: bool) -> bool:
        """Whether this pass hashes its outputs and counts events."""
        return first and not self.hashed

    def _write(self, name: str, data) -> Path:
        path = self.workdir / name
        path.write_text(gen.dumps(data) + "\n")
        return path


class Audit(Workload):
    name = "audit"

    def __init__(self, seed, workdir, purchases=400, days=360):
        super().__init__(seed, workdir)
        self.purchases, self.days = purchases, days

    def setup(self) -> None:
        sc = gen.heavy_account(self.seed, self.purchases, self.days,
                               "defensive-cycle", label="audit",
                               cross_cycle_refunds=False)
        self.scenario_path = self._write("audit.json", sc)
        self.config_path = self._write("audit-config.json", sc["config"])
        self.log_path = self.workdir / "audit.jsonl"
        self.replay_path = self.workdir / "audit-replay.jsonl"
        self.config = rs("ledger").EngineConfig.from_json_dict(sc["config"])

    def run_pass(self, tally, first):
        t0 = perf_counter()
        sim_code, _ = cli(["simulate", "--scenario", str(self.scenario_path),
                           "--log-out", str(self.log_path)])
        tally.part(perf_counter() - t0, "simulate_s")
        t0 = perf_counter()
        check_code, _ = cli(["check", "--log", str(self.log_path),
                             "--config", str(self.config_path)])
        tally.part(perf_counter() - t0, "check_s")
        t0 = perf_counter()
        same = replay_matches(self.log_path, self.replay_path, self.config)
        tally.part(perf_counter() - t0, "replay_s")
        tally.close()
        tally.op(sim_code == 0 and check_code == 0 and same)
        if self.recording(first):
            data = self.log_path.read_bytes()
            self.digest.update(data)
            self.events = data.count(b"\n")


def replay_matches(log_path: Path, replay_path: Path, config) -> bool:
    """Replay a stored log, write the result and compare the bytes."""
    report = rs("harness").replay(log_path, config)
    report.log.write_jsonl(replay_path)
    return replay_path.read_bytes() == log_path.read_bytes()


class LongAccount(Workload):
    name = "long-account"

    DELAY_DAYS = 5  # delivery delay of the instant variant

    def __init__(self, seed, workdir, purchases=3_000, days=5_600):
        super().__init__(seed, workdir)
        self.purchases, self.days = purchases, days

    def setup(self) -> None:
        events = gen.heavy_events(self.seed, self.purchases, self.days)
        self.variants = []
        for variant, delay in (("defensive-cycle", 0),
                               ("defensive-instant", self.DELAY_DAYS)):
            config = gen.config_dict(variant, gen.HEAVY_RATES_BPS,
                                     gen.HEAVY_CAPS_MINOR,
                                     delivery_delay_days=delay)
            sc = gen.scenario_dict(f"long-{variant}", config, events,
                                   auto_redeem=True)
            path = self._write(f"long-{variant}.json", sc)
            self.variants.append(rs("harness").Scenario.load(path))

    def run_pass(self, tally, first):
        harness, invariants = rs("harness"), rs("invariants")
        record = self.recording(first)
        events = 0
        for i, sc in enumerate(self.variants):
            log_path = self.workdir / f"long-{i}.jsonl"
            replay_path = self.workdir / f"long-{i}-replay.jsonl"
            t0 = perf_counter()
            report = harness.run(sc, daily_snapshots=False)
            tally.part(perf_counter() - t0, "run_s")
            t0 = perf_counter()
            report.log.write_jsonl(log_path)
            tally.part(perf_counter() - t0, "write_s")
            t0 = perf_counter()
            same = replay_matches(log_path, replay_path, sc.config)
            tally.part(perf_counter() - t0, "replay_s")
            t0 = perf_counter()
            reward = invariants.net_reward_from_log(report.log)
            ok = (same and invariants.net_reward(report.ledger) == reward
                  and reward <= invariants.oracle_bound(report.log, sc.config))
            tally.part(perf_counter() - t0, "oracle_s")
            tally.close()
            tally.op(ok)
            if record:
                self.digest.update(log_path.read_bytes())
                events += len(report.log)
        if record:
            self.events = events


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed, workdir, count=10_000):
        super().__init__(seed, workdir)
        self.count = count

    def setup(self) -> None:
        path = self.workdir / "sweep.jsonl"
        with open(path, "w") as fh:
            for sc, refunds in gen.sweep_scenarios(self.seed, self.count):
                fh.write(gen.dumps({"refunds": refunds, "scenario": sc}) + "\n")
        Scenario = rs("harness").Scenario
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        self.pool = [(Scenario.from_json_dict(r["scenario"]), r["refunds"])
                     for r in rows]

    def run_pass(self, tally, first):
        harness, invariants = rs("harness"), rs("invariants")
        record = self.recording(first)
        events = 0
        for sc, refunds in self.pool:
            t0 = perf_counter()
            report = harness.run(sc, daily_snapshots=False)
            tally.part(perf_counter() - t0, "run_s")
            t0 = perf_counter()
            reward = invariants.net_reward_from_log(report.log)
            bound = invariants.oracle_bound(report.log, sc.config)
            ok = reward <= bound and abs(reward - bound) <= refunds
            tally.part(perf_counter() - t0, "check_s")
            tally.close()
            tally.op(ok)
            if record:
                self.digest.update(log_bytes(report.log))
                events += len(report.log)
        if record:
            self.events = events


class AttackGrid(Workload):
    name = "attack-grid"

    def __init__(self, seed, workdir, sizes=28, cycles=24):
        super().__init__(seed, workdir)
        self.sizes, self.cycles = sizes, cycles

    def setup(self) -> None:
        path = self._write("attack-grid.json",
                           gen.attack_grid(self.seed, self.sizes, self.cycles))
        self.grid = json.loads(path.read_text())

    def run_pass(self, tally, first):
        adversary, issuers = rs("adversary"), rs("issuers")
        record = self.recording(first)
        events = 0
        if first:
            t0 = perf_counter()
            code, text = cli(["matrix"])
            tally.part(perf_counter() - t0, "matrix_s", scenario=False)
            tally.op(code == 0 and text.encode() == MATRIX_GOLDEN.read_bytes())
            if record:
                self.digest.update(text.encode())
        for cell in self.grid:
            variant, purchase = cell["variant"], cell["purchase_minor"]
            outcomes = []
            for timing, fraction in BATTERY:
                t0 = perf_counter()
                outcomes.append(adversary.run_ddra(
                    variant, timing=timing, purchase_minor=purchase,
                    cycles=cell["cycles"], refund_fraction=fraction))
                tally.sample(perf_counter() - t0, "battery_s")
            t0 = perf_counter()
            label = issuers.classify(issuers.get_variant(variant), outcomes)
            tally.part(perf_counter() - t0, "classify_s", scenario=False)
            ok = label == gen.EXPECTED_LABELS[variant]
            if variant == "A":
                per_cycle = min(ATTACK_RATE.numerator * purchase
                                // ATTACK_RATE.denominator, ATTACK_CAP_MINOR)
                ok = ok and outcomes[0].value_extracted == per_cycle * cell["cycles"]
            tally.op(ok)
            if record:
                self.digest.update(label.encode())
                for o in outcomes:
                    self.digest.update(log_bytes(o.report.log))
                    events += len(o.report.log)
        if record:
            self.events = events


WORKLOADS = {w.name: w for w in (Audit, LongAccount, Sweep, AttackGrid)}
