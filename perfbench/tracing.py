"""Layer tracing from outside the program.

``Tracer.install`` replaces selected rewardsim functions with timing or
counting wrappers.  Each wrapper is installed under every name that
refers to the original function in any loaded ``rewardsim`` module (for
example ``harness.check_rrc`` and ``cli.check_rrc``), so calls made
inside the package are caught as well as the benchmark's own calls.
``uninstall`` puts the originals back.

A span records its name, start, end, parent span and op id.  Spans are
kept in memory (up to ``MAX_SPANS``) and written out by ``write_spans``
when the run ends.  Counts are taken in the same wrappers.  A span's
self time is its duration minus the time covered by wrapped child
calls.  The program is single-threaded and has no queues or locks, so
no layer ever waits: waiting is zero by construction and not measured.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs timed as spans.
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("harness", "run"),
    ("harness", "replay"),
    ("harness", "scenario_from_log"),
    ("adversary", "run_ddra"),
    ("issuers", "classify"),
    ("issuers", "render_matrix"),
    ("engine", "statement_cycle_reconcile"),
    ("engine", "reward_on_settlement"),
    ("engine", "reward_on_refund"),
    ("engine", "reward_on_chargeback"),
    ("engine", "redeem"),
    ("invariants", "integrity_series"),
    ("invariants", "check_rrc"),
    ("invariants", "oracle_bound"),
    ("invariants", "net_reward_from_log"),
    ("invariants", "net_spend"),
]

# Hot helpers that are only counted: a span each would cost more than
# the call itself.
COUNT_FUNCTIONS = [
    ("money", "rate_ceil"),
    ("money", "rate_floor"),
    ("money", "mul_fraction"),
    ("engine", "can_redeem"),
]

# EventLog methods timed as spans; ``__iter__`` is counted separately.
SPAN_METHODS = ["emit", "write_jsonl", "read_jsonl"]


MAX_SPANS = 100_000  # spans kept for writing out; counts cover every call


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent id, op id)
        self.calls: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.invariants_busy_s = 0.0
        self.log_passes = 0
        self.gate_calls = 0  # can_redeem calls made outside redeem
        self.jsonl_bytes = 0
        self.days_walked = 0
        self.days_active = 0
        self.tally = None  # its ``count`` is the current op id
        self._next_id = 1
        self._stack: list = []  # frames: [span id, name, child seconds]
        self._inv_depth = 0
        self._restore: list = []  # (owner, attribute, original value)

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn, post=None, invariants: bool = False):
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            if invariants:
                self._inv_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if invariants:
                    self._inv_depth -= 1
                    if self._inv_depth == 0:
                        self.invariants_busy_s += t1 - t0
                self._close(frame, t0, t1)
            if post is not None:
                # bookkeeping after the span is charged to no span
                p0 = perf_counter()
                post(result, args)
                if stack:
                    stack[-1][2] += perf_counter() - p0
            return result

        return wrapper

    def _close(self, frame, t0: float, t1: float) -> None:
        sid, name, child = frame
        d = t1 - t0
        self.calls[name] += 1
        self.total_s[name] += d
        self.self_s[name] += d - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += d
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, t0, t1, parent[0] if parent else None,
                               self.tally.count if self.tally else 0))

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gate_counter(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][1] != "engine.redeem":
                self.gate_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _iter_counter(self, fn):
        def wrapper(log):
            if self._inv_depth:
                self.log_passes += 1
            return fn(log)

        return wrapper

    # -- post-call hooks -------------------------------------------------

    def _after_run(self, report, _args) -> None:
        walked = report.final_day + 1 if len(report.log) else 0
        self.days_walked += walked
        self.days_active += len({ev.day for ev in report.log.events})

    def _after_write(self, _result, args) -> None:
        self.jsonl_bytes += os.path.getsize(args[1])

    # -- install / uninstall ---------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rewardsim"
                                   or mod_name.startswith("rewardsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"rewardsim.{name}") for name in
                ("adversary", "cli", "engine", "harness", "invariants",
                 "issuers", "ledger", "money")}
        hooks = {"harness.run": self._after_run}
        for mod_name, fn_name in SPAN_FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._span(name, original, post=hooks.get(name),
                                 invariants=mod_name == "invariants")
            self._replace_everywhere(original, wrapper)
        for mod_name, fn_name in COUNT_FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            if fn_name == "can_redeem":
                wrapper = self._gate_counter(original)
            else:
                wrapper = self._counter(f"{mod_name}.{fn_name}", original)
            self._replace_everywhere(original, wrapper)

        cls = mods["ledger"].EventLog
        for meth in SPAN_METHODS:
            raw = cls.__dict__[meth]
            name = f"ledger.{meth}" if meth != "emit" else "ledger.EventLog.emit"
            post = self._after_write if meth == "write_jsonl" else None
            if isinstance(raw, classmethod):
                new = classmethod(self._span(name, raw.__func__, post=post))
            else:
                new = self._span(name, raw, post=post)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, new)
        raw_iter = cls.__dict__["__iter__"]
        self._restore.append((cls, "__iter__", raw_iter))
        cls.__iter__ = self._iter_counter(raw_iter)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, names: list, scenarios: int, op_seconds: float) -> dict:
        """The per-layer metrics in ``names`` that the wrappers measure.

        ``<function>.calls``, ``.s`` (total) and ``.self_s`` come from the
        span and count tables; the rest are named below.  Values are per
        scenario sample, except shares and ratios.  ``trace.*`` metrics
        compare traced with untraced runs and are left to the caller.
        """
        n = max(scenarios, 1)
        walked, active = self.days_walked, self.days_active
        special = {
            "invariants.busy_s": self.invariants_busy_s / n,
            "invariants.log_passes": self.log_passes / n,
            "ledger.jsonl_bytes": self.jsonl_bytes / n,
            "invariants.busy_share": (self.invariants_busy_s / op_seconds
                                      if op_seconds else 0.0),
            "engine.redeem_allowed_ratio": (self.calls["engine.redeem"] / self.gate_calls
                                            if self.gate_calls else 0.0),
            "harness.idle_day_share": (walked - active) / walked if walked else 0.0,
        }
        tables = {"calls": self.calls, "s": self.total_s, "self_s": self.self_s}
        metrics = {}
        for name in names:
            if name.startswith("trace."):
                continue
            base, _, kind = name.rpartition(".")
            if name in special:
                metrics[name] = special[name]
            else:
                metrics[name] = tables[kind][base] / n
        return metrics

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op}))
                fh.write("\n")
        return len(self.spans)
