import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from rewardsim import (
    ConfigError,
    EngineConfig,
    EventLog,
    LogInvalid,
    ParseError,
    Scenario,
    ScenarioEvent,
    ScenarioInvalid,
    SequenceGap,
    cli,
    run,
)
from rewardsim.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from rewardsim.issuers import VARIANTS


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
            # a negative b_min let the redemption gate overdraw the balance
            ({"b_min_minor": -1}, "error: b_min must be >= 0"),
        ],
        ids=["list", "rate-map", "float-period", "bool-grace", "unknown-key",
             "negative-b-min"],
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

    @pytest.mark.parametrize("value", [[], {}], ids=["array", "object"])
    @pytest.mark.parametrize("field", ["kind", "txn_id", "category", "label",
                                       "user", "variant"])
    def test_array_or_object_text_exits_1(self, tmp_path, capsys, field, value):
        # the loader interns each text; an array or object cannot be
        # hashed, so it must pass through untouched to the located refusal
        path, sc = write_scenario(tmp_path)
        raw = sc.to_json_dict()
        if field == "variant":
            raw["config"][field] = value
            message = f"variant must be one of {sorted(VARIANTS)}, got {value!r}"
        elif field in ("label", "user"):
            raw[field] = value
            message = f"{field} must be a string, got {value!r}"
        else:
            raw["events"][0][field] = value
            message = f"event 0: {field} must be a string, got {value!r}"
        path.write_text(json.dumps(raw))
        code = main(["simulate", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""

    def test_rounded_clawbacks_keep_no_more_than_the_rate(self, fixtures_dir, capsys):
        # two $1.00 purchases at 5%, each refunded $0.90: each 5-cent
        # grant loses 4.5 cents, rounded up to 5, so no reward is left;
        # the rate on the 20 cents kept bounds it at 1 cent.  Half-even
        # rounding kept 2 cents and failed integrity
        code = main(["simulate", "--scenario",
                     str(fixtures_dir / "rounded_clawbacks.json")])
        out = capsys.readouterr().out
        assert "VIOLATION" not in out
        assert "net reward: $0.00\ninvariants: ok\n" in out
        assert code == EXIT_OK

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
            # ddra was its only choice
            (["attack", "--issuer", "A", "--strategy", "ddra"],
             "unrecognized arguments: --strategy ddra"),
        ],
        ids=["missing-issuer", "non-integer-cycles", "unknown-command",
             "strategy"],
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
            # an unknown key used to be dropped, and the log passed
            ([log_line(1, "purchase"), log_line(2, "settle", note="dropped")],
             "error: line 2: unknown field 'note'"),
            # a log that violates both invariants: check used to print the
            # integrity line, then fail on the text of the consistency line
            ([log_line(1, "purchase", "t\ud800"),
              log_line(2, "settle", "t\ud800", 500),
              log_line(3, "refund-posted", "t\ud800", -10000)],
             "error: line 1: txn_id is not valid UTF-8 text: 't\\ud800'"),
            # each used to print Python's own TypeError text, such as
            # "'int' object is not subscriptable"
            *[([text], f"error: line 1: a log line must be a JSON object, got {got}")
              for text, got in (("[1, 2]", "[1, 2]"), ("5", "5"),
                                ('"abc"', "'abc'"), ("null", "None"))],
        ],
        ids=["reversal-no-purchase", "grant-no-purchase", "claw-no-purchase",
             "duplicate-purchase", "unknown-kind", "seq-gap", "missing-field",
             "bool-seq", "bool-day", "bool-amount", "bool-period",
             "unknown-field", "lone-surrogate", "array-line", "number-line",
             "string-line", "null-line"],
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

    @pytest.mark.parametrize("argv", [["--table"], []], ids=["table", "estimate"])
    def test_negative_users_exits_1_naming_the_flag(self, capsys, argv):
        # the estimate used to print leakage_estimate's own message, and
        # the table to ignore the flag and exit 0
        code = main(["impact", *argv, "--users", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == ["error: --users must be >= 0, got -1"]
        assert captured.out == ""

    @pytest.mark.parametrize("argv,flag", [
        (["--p", "0.5"], "--p"),
        (["--users", "7"], "--users"),
        (["--p", "0.5", "--users", "7"], "--p"),
        (["--p", "0.01", "--cap", "5000"], "--p"),
    ], ids=["rate", "users", "both", "default-rate"])
    def test_table_refuses_rate_and_users(self, capsys, argv, flag):
        # the table used to ignore both and print its fixed grid
        code = main(["impact", "--table", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [
            f"error: {flag} does not apply to --table, "
            "which prints a fixed grid of rates and cohorts"]
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
        ("log", "error: line 2: JSON holds an integer of more than 4300 digits"),
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


class TestRepeatedKeys:
    @pytest.mark.parametrize("where,message", [
        ("log", "error: line 2: JSON repeats key 'amount_minor'"),
        ("config", "error: config JSON repeats key 'grace_days'"),
        ("scenario", "error: scenario JSON repeats key 'amount_minor'"),
    ])
    def test_exits_1_naming_the_key(self, tmp_path, capsys, where, message):
        # json.loads keeps the last value: the log passed check, the
        # config took the second grace and the scenario ran a purchase
        # of 10000, each with exit 0
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        argv = ["check", "--log", str(log_path), "--config", str(cfg_path)]
        if where == "log":
            lines = log_path.read_text().splitlines(keepends=True)
            lines[1] = lines[1].replace('"amount_minor": ',
                                        '"amount_minor": 1, "amount_minor": ')
            log_path.write_text("".join(lines))
        elif where == "config":
            cfg_path.write_text(cfg_path.read_text().replace(
                '"grace_days": 7', '"grace_days": 7, "grace_days": 3'))
        else:
            path, sc = write_scenario(tmp_path)
            path.write_text(path.read_text().replace(
                '"amount_minor": 10000', '"amount_minor": 100, "amount_minor": 10000',
                1))
            argv = ["simulate", "--scenario", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""


class TestTruncatedJson:
    @pytest.mark.parametrize("where,text,message", [
        ("scenario", '{"schema": 1,',
         "error: scenario JSON is malformed: Expecting property name enclosed "
         "in double quotes: line 1 column 14 (char 13)"),
        ("config", '{"reward_rate_bps": {',
         "error: config JSON is malformed: Expecting property name enclosed "
         "in double quotes: line 1 column 22 (char 21)"),
    ])
    def test_exits_1_with_json_own_message(self, tmp_path, capsys, where, text,
                                           message):
        # json's own message, after the name of the file at fault: caught
        # as a bare ValueError, it would read as an integer of more than
        # 4300 digits
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        if where == "config":
            cfg_path.write_text(text)
            argv = ["check", "--log", str(log_path), "--config", str(cfg_path)]
        else:
            path = tmp_path / "truncated.json"
            path.write_text(text)
            argv = ["simulate", "--scenario", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [message]
        assert captured.out == ""


def run_cli(argv, options=(), **env):
    """``rewardsim`` in a child process, under interpreter ``options``
    and with ``env`` added to its environment."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **env)
    return subprocess.run(
        [sys.executable, *options, "-m", "rewardsim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestRefusalOrder:
    """Every input record is refused in one order: not a JSON object, an
    unknown key, the first missing key, then field by field a wrong type
    or text that is not valid UTF-8, each naming the value."""

    def refused(self, tmp_path, capsys, record, fault) -> str:
        """The error line of the command that reads ``record`` (scenario,
        event, config or line) after ``fault`` changed it in place."""
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        argv = ["check", "--log", str(log_path), "--config", str(cfg_path)]
        if record == "line":
            lines = [json.loads(text) for text in log_path.read_text().splitlines()]
            fault(lines[0])
            log_path.write_text("".join(json.dumps(raw) + "\n" for raw in lines))
        elif record == "config":
            raw = json.loads(cfg_path.read_text())
            fault(raw)
            cfg_path.write_text(json.dumps(raw))
        else:
            path, sc = write_scenario(tmp_path)
            raw = sc.to_json_dict()
            fault(raw if record == "scenario" else raw["events"][0])
            path.write_text(json.dumps(raw))
            argv = ["simulate", "--scenario", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        return line

    @pytest.mark.parametrize("record,field,unknown,wrong_type", [
        ("scenario", "label", "unknown scenario key 'bogus'",
         "label must be a string, got None"),
        ("event", "txn_id", "event 0: unknown key 'bogus'",
         "event 0: txn_id must be a string, got None"),
        ("config", "monthly_cap_minor", "unknown config key 'bogus'",
         "monthly_cap_minor must be a JSON object, got None"),
        # a log line's text faults used to name no value
        ("line", "user", "line 1: unknown field 'bogus'",
         "line 1: user must be a string, got None"),
    ])
    def test_an_unknown_key_comes_before_a_wrong_type(self, tmp_path, capsys,
                                                      record, field, unknown,
                                                      wrong_type):
        def both(raw):
            raw[field] = None
            raw["bogus"] = 1

        def wrong(raw):
            raw[field] = None

        assert self.refused(tmp_path, capsys, record, both) == f"error: {unknown}"
        assert self.refused(tmp_path, capsys, record, wrong) == f"error: {wrong_type}"

    @pytest.mark.parametrize("refusal", [ParseError, SequenceGap, LogInvalid,
                                         ScenarioInvalid, ConfigError],
                             ids=lambda refusal: refusal.__name__)
    def test_every_refusal_is_a_value_error(self, refusal):
        # main exits 1 on an OSError or a ValueError, and on nothing else
        assert issubclass(refusal, ValueError)

    @pytest.mark.parametrize("fault", [KeyError, ZeroDivisionError])
    def test_a_fault_of_the_program_is_not_called_bad_input(self, monkeypatch,
                                                            fault):
        # no input reaches either; main used to print one as an error
        # line and exit 1
        def broken(name):
            raise fault(name)

        monkeypatch.setattr(cli, "run_battery", broken)
        with pytest.raises(fault):
            main(["matrix"])


class TestEncoding:
    def test_utf8_scenario_reads_under_the_c_locale(self, tmp_path):
        # the scenario was read in the locale's encoding, ASCII here:
        # "error: 'ascii' codec can't decode byte 0xc3 in position 27"
        path, sc = write_scenario(tmp_path)
        raw = {**sc.to_json_dict(), "label": "café"}
        path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
        proc = run_cli(["simulate", "--scenario", str(path), "--format", "json"],
                       PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["label"] == "café"

    def test_no_file_is_opened_in_the_locale_encoding(self, tmp_path):
        path, _ = write_scenario(tmp_path)
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        strict = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        out = tmp_path / "report.json"
        for argv in (["simulate", "--scenario", str(path), "--out", str(out),
                      "--log-out", str(tmp_path / "out.jsonl")],
                     ["check", "--log", str(log_path), "--config", str(cfg_path)]):
            proc = run_cli(argv, strict)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert (tmp_path / "out.jsonl").read_bytes() == log_path.read_bytes()

    def test_log_that_is_not_utf8_names_the_line(self, tmp_path, capsys):
        # used to print the codec's message with a file offset, no line
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        lines = log_path.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b'"u1"', b'"u\xff"')
        log_path.write_bytes(b"".join(lines))
        code = main(["check", "--log", str(log_path), "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == ["error: line 4: not valid UTF-8"]
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["scenario", "config"])
    def test_input_file_that_is_not_utf8_names_its_kind(self, tmp_path, capsys,
                                                         where):
        log_path, cfg_path = TestCheck().make_log(tmp_path)
        if where == "scenario":
            path, _ = write_scenario(tmp_path)
            argv = ["simulate", "--scenario", str(path)]
        else:
            path = cfg_path
            argv = ["check", "--log", str(log_path), "--config", str(cfg_path)]
        # byte 0xff in the first key, on line 2 after a \r\n line end
        head, rest = json.dumps(json.loads(path.read_text()), indent=2).split("\n", 1)
        bad = rest.encode().replace(b'"', b'"\xff', 1)
        path.write_bytes(head.encode() + b"\r\n" + bad)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.splitlines() == [f"error: {where} line 2: not valid UTF-8"]
        assert captured.out == ""

    C_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}

    @staticmethod
    def escaped(text):
        return text.encode("ascii", "backslashreplace").decode("ascii")

    def assert_escaped_under_the_c_locale(self, capsys, argv):
        # the same code and stdout as in a UTF-8 locale, each character
        # ASCII cannot take printed as a backslash escape; this used to
        # exit 1 with "error: 'ascii' codec can't encode character"
        code = main(argv)
        expected = capsys.readouterr().out
        assert not expected.isascii()
        proc = run_cli(argv, **self.C_LOCALE)
        assert (proc.returncode, proc.stderr) == (code, "")
        assert proc.stdout == self.escaped(expected)
        return code, expected

    def test_matrix_prints_escapes_under_the_c_locale(self, fixtures_dir, capsys):
        code, out = self.assert_escaped_under_the_c_locale(capsys, ["matrix"])
        assert code == EXIT_OK
        assert out == (fixtures_dir / "matrix_golden.txt").read_text(encoding="utf-8")

    def test_matrix_json_stays_valid_under_the_c_locale(self, capsys):
        # a backslash escape such as \xd7 is not valid JSON; the rows'
        # marks print as JSON escapes in every locale
        code = main(["matrix", "--format", "json"])
        expected = capsys.readouterr().out
        assert expected.isascii()
        proc = run_cli(["matrix", "--format", "json"], **self.C_LOCALE)
        assert (proc.returncode, proc.stderr) == (code, "") == (EXIT_OK, "")
        assert proc.stdout.isascii()
        assert json.loads(proc.stdout) == json.loads(expected)

    def test_simulate_prints_a_label_escaped_under_the_c_locale(self, tmp_path,
                                                                 capsys):
        path, sc = write_scenario(tmp_path, variant="A")
        path.write_text(json.dumps({**sc.to_json_dict(), "label": "café"}))
        log_path = tmp_path / "out.jsonl"
        code, out = self.assert_escaped_under_the_c_locale(
            capsys, ["simulate", "--scenario", str(path), "--log-out", str(log_path)])
        assert code == EXIT_VIOLATION
        assert out.splitlines()[0] == "scenario: café"

    def test_check_prints_every_violation_escaped_under_the_c_locale(self, tmp_path,
                                                                     capsys):
        events = [
            ScenarioEvent(day=1, kind="purchase", txn_id=txn, amount_minor=10000,
                          category="GROCERY")
            for txn in ("té1", "té2")
        ] + [
            ScenarioEvent(day=5, kind="refund", txn_id=txn, amount_minor=10000)
            for txn in ("té1", "té2")
        ]
        _, sc = write_scenario(tmp_path, variant="A", events=events)
        log_path = tmp_path / "log.jsonl"
        run(sc).log.write_jsonl(log_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(sc.config.to_json_dict()))
        code, out = self.assert_escaped_under_the_c_locale(
            capsys, ["check", "--log", str(log_path), "--config", str(cfg_path)])
        assert code == EXIT_VIOLATION
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "INTEGRITY VIOLATION day 5",
            "CONSISTENCY VIOLATION txn té1",
            "CONSISTENCY VIOLATION txn té2",
        ]


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


class TestClosedStdout:
    """A reader that has closed the pipe is no input fault: the command
    exits 1 with nothing on stderr, neither an ``error:`` line nor the
    interpreter's ``Exception ignored`` note and exit 120."""

    @pytest.mark.parametrize("argv", [
        ["check", "--log", "LOG", "--config", "CONFIG"],
        ["matrix"],
        ["attack", "--issuer", "A"],
    ], ids=lambda argv: argv[0])
    def test_exits_1_with_nothing_on_stderr(self, argv, tmp_path):
        fixtures = pathlib.Path(__file__).resolve().parent / "fixtures"
        config = tmp_path / "config.json"
        scenario = json.loads((fixtures / "ddra_A.json").read_text())
        config.write_text(json.dumps(scenario["config"]))
        files = {"LOG": str(fixtures / "ddra_A.jsonl"), "CONFIG": str(config)}
        env = dict(os.environ, PYTHONPATH=str(fixtures.parent.parent / "src"))
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child writes a byte
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rewardsim.cli",
                 *(files.get(arg, arg) for arg in argv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_INPUT, "")
