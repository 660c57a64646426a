"""A host-speed gauge: a fixed Python kernel timed between the ops.

The benchmark's host is a few vCPUs shared with other tenants, and its
speed drifts by a third or more over seconds and minutes.  Wall time
alone then measures the host as much as rewardsim.  The gauge kernel
does the same kinds of work rewardsim does (small objects, dict
updates, ``Fraction`` arithmetic, JSON text, sorting) on fixed inputs,
so the host slows it as it slows the program.  Runs interleave the
kernel with the ops every ``CHUNK_S`` seconds and scale each op's time
by ``NOMINAL_S`` over the gauge readings around it: timings are
reported in seconds at the speed at which the kernel takes
``NOMINAL_S``, close to wall time on a quiet host.

The kernel lives in the benchmark and imports nothing from rewardsim,
so a change to the program cannot move it.  The collector is paused
while it runs, so the size of the program's heap cannot move it either.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# The kernel's time at the reference speed (its fastest reading on the
# 2-vCPU Xeon host the benchmark was tuned on).
NOMINAL_S = 0.0060

# Ops run for about this long between two gauge readings.
CHUNK_S = 0.04

KEYS = [f"k{i:03d}" for i in range(97)]


@dataclass
class Row:
    day: int
    kind: str
    amount: int


def kernel() -> int:
    """Fixed work; the same every call."""
    totals: dict = {}
    rows = []
    x = 12345
    for i in range(600):
        x = (x * 1103515245 + 12345) % 2_147_483_648
        key = KEYS[x % 97]
        totals[key] = totals.get(key, Fraction(0)) + Fraction(x % 1000 + 1, 100)
        rows.append(Row(i, key, x % 100_000))
    text = json.dumps([r.__dict__ for r in rows])
    back = sorted(json.loads(text), key=lambda r: (r["amount"], r["day"]))
    return len(back) + len(totals)


def read() -> float:
    """One gauge reading: the kernel's wall time, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
