import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from rewardsim import EngineConfig, EventLog, Scenario, ScenarioEvent, run
from rewardsim.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main


def write_scenario(tmp_path, variant="defensive-instant", events=None,
                   auto_redeem=False):
    cfg = EngineConfig(
        reward_rate={"GROCERY": Fraction(5, 100)},
        monthly_cap={"GROCERY": 5000},
        variant=variant,
    )
    if events is None:
        events = [
            ScenarioEvent(day=1, kind="purchase", txn_id="t1",
                          amount_minor=10000, category="GROCERY"),
            ScenarioEvent(day=5, kind="refund", txn_id="t1", amount_minor=10000),
        ]
    sc = Scenario(label="cli", config=cfg, events=events, auto_redeem=auto_redeem)
    path = tmp_path / "scenario.json"
    sc.save(path)
    return path, sc


def log_line(n, kind, txn_id="t1", amount=10000, **overrides):
    """The JSONL line of event ``n`` (seq and day both ``n``);
    ``overrides`` replace fields as they are."""
    raw = {"seq": n, "day": n, "kind": kind, "txn_id": txn_id, "user": "u1",
           "amount_minor": amount, "category": "GROCERY", "period": 0}
    raw.update(overrides)
    return json.dumps(raw)


class TestSimulate:
    def test_clean_run(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path)
        code = main(["simulate", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "invariants: ok" in out

    def test_writes_log_and_report(self, tmp_path):
        path, sc = write_scenario(tmp_path)
        log_path = tmp_path / "log.jsonl"
        out_path = tmp_path / "report.json"
        code = main([
            "simulate", "--scenario", str(path),
            "--log-out", str(log_path), "--out", str(out_path),
        ])
        assert code == EXIT_OK
        assert len(EventLog.read_jsonl(log_path)) > 0
        report = json.loads(out_path.read_text())
        assert report["label"] == "cli"
        assert report["final"]["net_reward_minor"] == 0

    def test_json_format(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path)
        code = main(["simulate", "--scenario", str(path), "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_violating_variant_exits_2(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path, variant="A", events=[
            ScenarioEvent(day=1, kind="purchase", txn_id="t1",
                          amount_minor=10000, category="GROCERY"),
            ScenarioEvent(day=5, kind="refund", txn_id="t1", amount_minor=10000),
        ])
        code = main(["simulate", "--scenario", str(path)])
        assert code == EXIT_VIOLATION
        assert "VIOLATION" in capsys.readouterr().out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("amount_minor", True), ("day", 1.5)])
    def test_non_integer_scenario_field_exits_1(self, tmp_path, capsys, field,
                                                value):
        # a bool amount used to run and log "amount_minor": true, which
        # check then rejected; a float day was silently dropped
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        raw["events"][0][field] = value
        path.write_text(json.dumps(raw))
        log_path = tmp_path / "log.jsonl"
        code = main(["simulate", "--scenario", str(path), "--log-out", str(log_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [
            f"error: event 0: {field} must be an integer, got {value!r}"
        ]
        assert not log_path.exists()

    @pytest.mark.parametrize(
        "config,message",
        [
            ([], "error: config must be a JSON object, got []"),
            ({"reward_rate_bps": 500},
             "error: reward_rate_bps must be a JSON object, got 500"),
            ({"period_length_days": 30.0},
             "error: period_length_days must be an integer, got 30.0"),
            ({"grace_days": True}, "error: grace_days must be an integer, got True"),
            ({"grace_day": 3}, "error: unknown config key 'grace_day'"),
        ],
        ids=["list", "rate-map", "float-period", "bool-grace", "unknown-key"],
    )
    def test_bad_config_exits_1(self, tmp_path, capsys, config, message):
        # a list config used to end in an AttributeError traceback, and
        # a 30.0-day period ran and wrote "period": 0.0 into the log
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        raw["config"] = config
        path.write_text(json.dumps(raw))
        log_path = tmp_path / "log.jsonl"
        code = main(["simulate", "--scenario", str(path), "--log-out", str(log_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""
        assert not log_path.exists()

    @pytest.mark.parametrize(
        "where,key,message",
        [
            ("event", "categroy", "error: event 0: unknown key 'categroy'"),
            ("scenario", "auto_redeam", "error: unknown scenario key 'auto_redeam'"),
        ],
        ids=["event", "scenario"],
    )
    def test_unknown_key_exits_1(self, tmp_path, capsys, where, key, message):
        # a misspelt key used to be dropped, and the run took the default
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        target = raw["events"][0] if where == "event" else raw
        target[key] = 3
        path.write_text(json.dumps(raw))
        log_path = tmp_path / "log.jsonl"
        code = main(["simulate", "--scenario", str(path), "--log-out", str(log_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""
        assert not log_path.exists()

    @pytest.mark.parametrize(
        "where,key,message",
        [
            ("scenario", "label", "error: missing scenario key 'label'"),
            ("scenario", "config", "error: missing scenario key 'config'"),
            ("event", "day", "error: event 1: missing key 'day'"),
            ("event", "kind", "error: event 1: missing key 'kind'"),
        ],
        ids=["label", "config", "day", "kind"],
    )
    def test_missing_key_exits_1(self, tmp_path, capsys, where, key, message):
        # the message used to be the bare key, such as "error: 'day'"
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        del (raw["events"][1] if where == "event" else raw)[key]
        path.write_text(json.dumps(raw))
        code = main(["simulate", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field,message",
        [
            ("label", "label is not valid UTF-8 text"),
            ("user", "user is not valid UTF-8 text"),
            ("kind", "event 0: kind is not valid UTF-8 text"),
            ("txn_id", "event 0: txn_id is not valid UTF-8 text"),
            ("category", "event 0: category is not valid UTF-8 text"),
        ],
        ids=["label", "user", "kind", "txn_id", "category"],
    )
    def test_lone_surrogate_exits_1_before_writing(self, tmp_path, capsys, field,
                                                    message):
        # a lone surrogate used to run and write the log, then fail to
        # print the text report
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        if field in ("label", "user"):
            raw[field] = "t\ud800"
        else:
            raw["events"][0][field] = "t\ud800"
        path.write_text(json.dumps(raw))
        log_path = tmp_path / "log.jsonl"
        code = main(["simulate", "--scenario", str(path), "--log-out", str(log_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [f"error: {message}: 't\\ud800'"]
        assert captured.out == ""
        assert not log_path.exists()

    @pytest.mark.parametrize("events", [5, None, "ab", {"day": 1}],
                             ids=["int", "null", "string", "object"])
    def test_non_array_events_exits_1(self, tmp_path, capsys, events):
        # an int or null used to say "'int' object is not iterable", and a
        # string or object was iterated as if it were the event list
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        raw["events"] = events
        path.write_text(json.dumps(raw))
        code = main(["simulate", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [
            f"error: events must be a JSON array, got {events!r}"
        ]
        assert captured.out == ""

    def test_lone_surrogate_label_in_a_process(self, tmp_path):
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        raw["label"] = "\ud800"
        path.write_text(json.dumps(raw))
        log_path = tmp_path / "log.jsonl"
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "rewardsim.cli", "simulate", "--scenario",
             str(path), "--log-out", str(log_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.splitlines() == [
            "error: label is not valid UTF-8 text: '\\ud800'"
        ]
        assert proc.stdout == ""
        assert not log_path.exists()


class TestAttack:
    def test_vulnerable_issuer_exits_2(self, capsys):
        code = main(["attack", "--issuer", "A", "--cycles", "3"])
        assert code == EXIT_VIOLATION
        assert "value extracted: $15.00" in capsys.readouterr().out

    def test_resistant_issuer_exits_0(self, capsys):
        code = main(["attack", "--issuer", "defensive-instant", "--cycles", "3"])
        assert code == EXIT_OK
        assert "no value extracted" in capsys.readouterr().out

    def test_float_window_warns_but_passes(self, capsys):
        code = main(["attack", "--issuer", "F", "--timing", "same-cycle",
                     "--cycles", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "WARNING" in out

    def test_unknown_issuer_exits_1(self, capsys):
        code = main(["attack", "--issuer", "Z"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("cycles", ["0", "-3"])
    def test_cycles_below_one_exits_1(self, capsys, cycles):
        # used to print "cycles: -3" and "RESULT: no value extracted"
        code = main(["attack", "--issuer", "A", "--cycles", cycles])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [
            f"error: cycles must be at least 1, got {cycles}"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("purchase", ["0", "-5"])
    def test_purchase_below_one_exits_1(self, capsys, purchase):
        # 0 used to blame the refund fraction, -5 to fail inside the run
        code = main(["attack", "--issuer", "A", "--purchase", purchase])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [
            f"error: purchase_minor must be at least 1, got {purchase}"
        ]
        assert captured.out == ""


class TestUsage:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["attack"], "the following arguments are required: --issuer"),
            (["attack", "--issuer", "A", "--cycles", "abc"],
             "argument --cycles: invalid int value: 'abc'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
        ids=["missing-issuer", "non-integer-cycles", "unknown-command"],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        # exit 2 is kept for a failed invariant, so a typo must not use it
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("usage: rewardsim")
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        code = main(["--help"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out.startswith("usage: rewardsim")


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys,
                                                          monkeypatch):
        # main builds its parser once per process; no call may leave a
        # trace in it that changes the next call's parse
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal
        log_path, cfg_path = TestCheck().make_log(tmp_path, variant="defensive-cycle")
        check = ["check", "--log", str(log_path), "--config", str(cfg_path)]
        calls = [["attack"], ["--help"], check + ["--delta-days", "0"], check,
                 ["impact"]]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        fresh = [
            (proc.returncode, proc.stdout)
            for proc in (subprocess.run([sys.executable, "-m", "rewardsim.cli", *argv],
                                        capture_output=True, text=True, env=env,
                                        timeout=60)
                         for argv in calls)
        ]
        assert in_process == fresh
        # the window falls back to the variant's once --delta-days is gone
        assert "allowed lag 0d" in in_process[2][1]
        assert "allowed lag 30d" in in_process[3][1]


class TestMatrix:
    def test_text_matches_golden(self, capsys, fixtures_dir):
        code = main(["matrix"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == (fixtures_dir / "matrix_golden.txt").read_text()

    def test_json_rows(self, capsys):
        code = main(["matrix", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert [r["variant"] for r in rows] == ["A", "B", "C", "D", "E", "F", "V3a"]


class TestCheck:
    def make_log(self, tmp_path, variant="defensive-instant"):
        path, sc = write_scenario(tmp_path, variant=variant)
        report = run(sc)
        log_path = tmp_path / "log.jsonl"
        report.log.write_jsonl(log_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(sc.config.to_json_dict()))
        return log_path, cfg_path

    def test_clean_log_passes(self, tmp_path, capsys):
        log_path, cfg_path = self.make_log(tmp_path)
        code = main(["check", "--log", str(log_path), "--config", str(cfg_path)])
        assert code == EXIT_OK
        assert "invariants hold" in capsys.readouterr().out

    def test_default_window_follows_variant(self, tmp_path, capsys):
        log_path, cfg_path = self.make_log(tmp_path, variant="defensive-cycle")
        code = main(["check", "--log", str(log_path), "--config", str(cfg_path)])
        assert code == EXIT_OK
        assert "allowed lag 30d" in capsys.readouterr().out

    def test_negative_delta_days_is_a_usage_error(self, tmp_path, capsys,
                                                  fixtures_dir):
        # a negative lag used to fail every refund as a consistency
        # violation and exit 2, which a CI gate reads as a broken engine
        scenario = Scenario.load(fixtures_dir / "walkthrough.json")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(scenario.config.to_json_dict()))
        code = main(["check", "--log", str(fixtures_dir / "walkthrough.jsonl"),
                     "--config", str(cfg_path), "--delta-days", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == ["error: --delta-days must be >= 0, got -1"]
        assert captured.out == ""

    def test_unbacked_reward_exits_2(self, tmp_path, capsys):
        log = EventLog()
        log.emit(day=0, kind="purchase", txn_id="t1", user="u1",
                 amount_minor=10000, category="GROCERY", period=0)
        log.emit(day=0, kind="settle", txn_id="t1", user="u1",
                 amount_minor=500, category="GROCERY", period=0)
        log.emit(day=2, kind="refund-posted", txn_id="t1", user="u1",
                 amount_minor=-10000, category="GROCERY", period=0)
        log_path = tmp_path / "bad.jsonl"
        log.write_jsonl(log_path)
        cfg = EngineConfig(reward_rate={"GROCERY": Fraction(5, 100)})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        code = main(["check", "--log", str(log_path), "--config", str(cfg_path)])
        assert code == EXIT_VIOLATION
        assert "VIOLATION" in capsys.readouterr().out

    def test_violation_lines_of_simulate_and_check(self, tmp_path, capsys):
        # both commands print the same violations; check adds the lag it used
        scenario_path, sc = write_scenario(tmp_path, variant="A")
        log_path = tmp_path / "log.jsonl"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(sc.config.to_json_dict()))
        sim_code = main(["simulate", "--scenario", str(scenario_path),
                         "--log-out", str(log_path)])
        sim_out = capsys.readouterr().out.splitlines()
        check_code = main(["check", "--log", str(log_path), "--config", str(cfg_path)])
        check_out = capsys.readouterr().out.splitlines()
        assert (sim_code, check_code) == (EXIT_VIOLATION, EXIT_VIOLATION)
        assert sim_out[-2:] == [
            "INTEGRITY VIOLATION day 5: net reward $5.00 exceeds bound $0.00",
            "CONSISTENCY VIOLATION txn t1: refund on day 5 restored never",
        ]
        assert check_out == [
            "INTEGRITY VIOLATION day 5: net reward $5.00 exceeds bound $0.00",
            "CONSISTENCY VIOLATION txn t1: refund on day 5 restored never "
            "(allowed lag 30d)",
        ]

    @pytest.mark.parametrize(
        "lines,message",
        [
            ([log_line(1, "purchase"), log_line(2, "refund-posted", "zz", -100)],
             "error: seq 2: refund-posted for transaction 'zz' with no purchase"),
            ([log_line(1, "purchase"), log_line(2, "settle", "zz", 5)],
             "error: seq 2: settle for transaction 'zz' with no purchase"),
            ([log_line(1, "purchase"), log_line(2, "refund", "zz", -5)],
             "error: seq 2: refund for transaction 'zz' with no purchase"),
            ([log_line(1, "purchase"), log_line(2, "purchase", amount=500)],
             "error: seq 2: duplicate purchase of transaction 't1'"),
            ([log_line(1, "purchase"), log_line(2, "mystery")],
             "error: line 2: unknown event kind 'mystery'"),
            ([log_line(1, "purchase"), log_line(3, "settle", amount=5)],
             "error: line 2: expected seq 2, got 3"),
            ([json.dumps({"day": 0, "kind": "purchase"})],
             "error: line 1: missing field 'seq'"),
            ([log_line(1, "purchase", seq=True)],
             "error: line 1: seq must be an integer, got True"),
            ([log_line(1, "purchase"), log_line(2, "settle", day=False)],
             "error: line 2: day must be an integer, got False"),
            ([log_line(1, "purchase", amount_minor=True)],
             "error: line 1: amount_minor must be an integer, got True"),
            ([log_line(1, "purchase", period=True)],
             "error: line 1: period must be an integer, got True"),
            # a log that violates both invariants: check used to print the
            # integrity line, then fail on the text of the consistency line
            ([log_line(1, "purchase", "t\ud800"),
              log_line(2, "settle", "t\ud800", 500),
              log_line(3, "refund-posted", "t\ud800", -10000)],
             "error: line 1: txn_id is not valid UTF-8 text"),
        ],
        ids=["reversal-no-purchase", "grant-no-purchase", "claw-no-purchase",
             "duplicate-purchase", "unknown-kind", "seq-gap", "missing-field",
             "bool-seq", "bool-day", "bool-amount", "bool-period",
             "lone-surrogate"],
    )
    def test_bad_log_exits_1_with_located_message(self, tmp_path, capsys, lines,
                                                   message):
        log_path = tmp_path / "bad.jsonl"
        log_path.write_text("".join(line + "\n" for line in lines))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(EngineConfig(
            reward_rate={"GROCERY": Fraction(5, 100)}).to_json_dict()))
        code = main(["check", "--log", str(log_path), "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config,message",
        [
            ([], "error: config must be a JSON object, got []"),
            ({"monthly_cap_minor": [5000]},
             "error: monthly_cap_minor must be a JSON object, got [5000]"),
            ({"reward_rate_bps": {"GROCERY": "500"}},
             "error: reward_rate_bps for 'GROCERY' must be an integer, got '500'"),
            ({"delivery_delay_days": 1.5},
             "error: delivery_delay_days must be an integer, got 1.5"),
            ({"variant": "Z"},
             "error: variant must be one of ['A', 'B', 'C', 'D', 'E', 'F', "
             "'V3a', 'defensive-cycle', 'defensive-instant'], got 'Z'"),
            ({"variant": "C", "grace_day": 3}, "error: unknown config key 'grace_day'"),
        ],
        ids=["list", "cap-map", "text-bps", "float-delay", "unknown-variant",
             "unknown-key"],
    )
    def test_bad_config_exits_1(self, tmp_path, capsys, config, message):
        # --delta-days keeps check from looking the variant up itself
        log_path, cfg_path = self.make_log(tmp_path)
        cfg_path.write_text(json.dumps(config))
        code = main(["check", "--log", str(log_path), "--config", str(cfg_path),
                     "--delta-days", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    def test_corrupt_log_exits_1(self, tmp_path, capsys):
        log_path = tmp_path / "corrupt.jsonl"
        log_path.write_text("{broken\n")
        _, cfg_path = self.make_log(tmp_path)
        code = main(["check", "--log", str(log_path), "--config", str(cfg_path)])
        assert code == EXIT_INPUT


class TestImpact:
    def test_single_estimate(self, capsys):
        code = main(["impact", "--p", "0.01", "--users", "1000000",
                     "--cap", "5000"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "$6,000,000.00" in out
        assert "6.0 $M" in out

    def test_fraction_argument(self, capsys):
        code = main(["impact", "--p", "1/100", "--users", "1000000",
                     "--cap", "5000"])
        assert code == EXIT_OK
        assert "$6,000,000.00" in capsys.readouterr().out

    def test_grid(self, capsys):
        code = main(["impact", "--table", "--cap", "5000"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for cell in ("0.06", "60.0", "300.0"):
            assert cell in out

    def test_bad_rate_exits_1(self, capsys):
        code = main(["impact", "--p", "2.0"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("p", ["abc", "1/0", "2", "-0.5"])
    def test_every_rate_refusal_names_the_flag(self, capsys, p):
        # each used to print Fraction's or leakage_estimate's own message
        code = main(["impact", "--p", p])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [
            f"error: --p must be a share in [0, 1] such as 0.01 or 1/100, got {p!r}"]
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--table"], []], ids=["table", "estimate"])
    def test_negative_cap_exits_1_before_printing(self, capsys, argv):
        # the table used to print its header row first
        code = main(["impact", *argv, "--cap", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == ["error: --cap must be >= 0, got -1"]
        assert captured.out == ""


class TestDeepNesting:
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("where,message", [
        ("log", "error: line 2: JSON nested too deep"),
        ("config", "error: config JSON nested too deep"),
        ("scenario", "error: scenario JSON nested too deep"),
    ])
    def test_exits_1_without_traceback(self, tmp_path, where, message):
        # each used to end in a RecursionError traceback
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        argv = ["check", "--log", str(log_path), "--config", str(cfg_path)]
        if where == "log":
            log_path.write_text(log_line(1, "purchase") + "\n" + self.DEEP + "\n")
        elif where == "config":
            cfg_path.write_text(self.DEEP)
        else:
            path, sc = write_scenario(tmp_path)
            text = json.dumps({**sc.to_json_dict(), "label": "@"})
            path.write_text(text.replace('"@"', self.DEEP))
            argv = ["simulate", "--scenario", str(path)]
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "rewardsim.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.splitlines() == [message]
        assert proc.stdout == ""


class TestLongIntegers:
    LONG = "9" * 5000  # past the interpreter's int-from-text digit limit

    @pytest.mark.parametrize("where,message", [
        ("log", "error: line 2: integer of more than 4300 digits"),
        ("config", "error: config JSON holds an integer of more than 4300 digits"),
        ("scenario",
         "error: scenario JSON holds an integer of more than 4300 digits"),
    ])
    def test_exits_1_with_located_message(self, tmp_path, capsys, where, message):
        # each used to print int()'s own advice to raise the limit
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        argv = ["check", "--log", str(log_path), "--config", str(cfg_path)]
        if where == "log":
            long_day = log_line(2, "settle").replace('"day": 2', f'"day": {self.LONG}')
            log_path.write_text(log_line(1, "purchase") + "\n" + long_day + "\n")
        elif where == "config":
            cfg_path.write_text(cfg_path.read_text().replace(
                '"grace_days": 7', f'"grace_days": {self.LONG}'))
        else:
            path, sc = write_scenario(tmp_path)
            path.write_text(path.read_text().replace(
                '"amount_minor": 10000', f'"amount_minor": {self.LONG}', 1))
            argv = ["simulate", "--scenario", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    @pytest.mark.parametrize("p", [f"1/{LONG}", f"{LONG}/1", f"0.{LONG}"],
                             ids=["denominator", "numerator", "decimal"])
    def test_impact_names_the_rate_flag(self, capsys, p):
        code = main(["impact", "--p", p])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [
            "error: --p holds an integer of more than 4300 digits"]
        assert captured.out == ""


class TestScripts:
    def test_walkthrough_script_runs(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "reproduce_walkthrough.py")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        states = [line for line in proc.stdout.splitlines() if "status=" in line]
        assert "current=  $0.00" in states[-1]
        assert states[-1].endswith("status=REFUNDED")
