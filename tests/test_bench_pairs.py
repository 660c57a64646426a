"""The pair runner's summary: medians, inclusive quartiles and wins,
and the net line count of ``src/``."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "p50", "better": "lower", "bound": 0.2},
                       {"name": "rate", "better": "higher", "bound": 0.1}]}


def result(p50, rate, failed=0, digest="d1", import_s=0.05, inputs_s=0.01):
    return {"failed": failed, "attempted": 10, "output_sha256": digest,
            "metrics": {"p50": {"value": p50}, "rate": {"value": rate}},
            "host_slowdown": 1.0,
            "setup": {"repeats": 5, "import_s": import_s, "inputs_s": inputs_s}}


def test_summary_counts_wins_in_each_metric_direction():
    runs = [
        {"first": "parent", "parent": result(10.0, 5.0), "change": result(8.0, 6.0)},
        {"first": "change", "parent": result(12.0, 4.0), "change": result(9.0, 4.0)},
        {"first": "parent", "parent": result(11.0, 6.0), "change": result(11.0, 7.0, 1)},
    ]
    summary = bench_pairs.summarise(runs, SPEC)
    assert summary["pairs"] == 3
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 30, "change": 30}
    p50 = summary["p50"]
    assert (p50["parent_median"], p50["change_median"]) == (11.0, 9.0)
    assert p50["parent_quartiles"] == [10.5, 11.5]
    assert p50["change_wins"] == 2  # a tie counts for neither side
    assert round(p50["change_pct"], 6) == round(-200 / 11, 6)
    assert summary["rate"]["change_wins"] == 2
    assert summary["digests_match"] is True
    assert p50["within_bound"] is True and summary["rate"]["within_bound"] is True


def test_one_differing_pair_is_recorded_in_summary_and_trace():
    runs = [
        {"first": "parent", "parent": result(10.0, 5.0), "change": result(8.0, 6.0)},
        {"first": "change", "parent": result(12.0, 4.0),
         "change": result(9.0, 4.0, digest="d2")},
    ]
    assert bench_pairs.summarise(runs, SPEC)["digests_match"] is False
    trace = bench_pairs.trace_medians(runs, "cmd")
    assert trace["digests_match"] is False
    assert trace["median"]["change"] == {"p50": 8.5, "rate": 5.0}
    assert bench_pairs.trace_medians(runs[:1], "cmd")["digests_match"] is True


def test_traced_times_are_labelled_raw_wall_seconds():
    # perfbench divides a traced span by the scenario count only, so the
    # record must not call those times gauge-scaled
    runs = [{"first": "parent", "parent": result(10.0, 5.0),
             "change": result(8.0, 6.0)}]
    assert bench_pairs.trace_medians(runs, "cmd")["timings"] == (
        "raw wall seconds, not scaled by perfbench's gauge; compare the sides "
        "only where their host_slowdown readings match")
    prov = {"nproc": 2, "platform": "Linux", "python": "3.11.7"}
    assert bench_pairs.host_line(prov) == (
        "2 CPUs, Linux, Python 3.11.7; end-to-end timings scaled by perfbench's "
        "gauge, traced per-layer times in raw wall seconds")


def test_within_bound_in_each_metric_direction():
    lower, higher = SPEC["end_to_end"]
    # p50 may grow by 20% of the parent's median, rate fall by 10%
    assert bench_pairs.within_bound(10.0, 12.0, lower)
    assert not bench_pairs.within_bound(10.0, 12.5, lower)
    assert bench_pairs.within_bound(10.0, 1.0, lower)
    assert bench_pairs.within_bound(10.0, 9.0, higher)
    assert not bench_pairs.within_bound(10.0, 8.5, higher)
    assert bench_pairs.within_bound(10.0, 50.0, higher)


def test_summary_line_names_a_metric_outside_its_bound(capsys):
    runs = [{"first": "parent", "parent": result(10.0, 5.0),
             "change": result(13.0, 5.0)}]
    summary = bench_pairs.summarise(runs, SPEC)
    assert summary["p50"]["within_bound"] is False
    bench_pairs.report("w", summary, SPEC)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("  p50") and lines[1].endswith("OUTSIDE bound 20%")
    assert lines[2].startswith("  rate") and lines[2].endswith("within bound 10%")


def test_setup_parts_are_summarised_and_printed(capsys):
    runs = [
        {"first": "parent", "parent": result(10.0, 5.0, import_s=0.07),
         "change": result(9.0, 5.0, import_s=0.05, inputs_s=0.02)},
        {"first": "change", "parent": result(10.0, 5.0, import_s=0.09),
         "change": result(9.0, 5.0, import_s=0.04, inputs_s=0.02)},
    ]
    summary = bench_pairs.summarise(runs, SPEC)
    assert summary["setup"] == {
        "import_s": {"parent_median": 0.08, "change_median": 0.045},
        "inputs_s": {"parent_median": 0.01, "change_median": 0.02},
    }
    bench_pairs.report("w", summary, SPEC)
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  setup_s parts     import_s 0.08 -> 0.045  inputs_s 0.01 -> 0.02")


def test_every_run_compiles_its_sources(monkeypatch, tmp_path):
    # otherwise the first run writes bytecode that every later import
    # probe reads, and import_s leaves out compiling the sources
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        seen.append(env.get("PYTHONDONTWRITEBYTECODE"))
        (cwd / ".bench_work" / "results" / "r.json").write_text("{}")
        return subprocess.CompletedProcess(argv, 0)

    (tmp_path / ".bench_work" / "results").mkdir(parents=True)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(tmp_path, [], "r.json") == {}
    assert seen == ["1"]


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_refused_before_any_tree_is_built(monkeypatch, capsys,
                                                           pairs):
    # --pairs 0 used to export both trees, then fail on runs[0]
    built = []
    monkeypatch.setattr(bench_pairs, "fresh", built.append)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--pr", "0", "--workload", "sweep", "--seed", "1",
                          "--pairs", pairs])
    assert exc.value.code == 2
    assert built == []
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("flag,value,known", [
    ("--workload", "audti", [w["name"] for w in BENCHMARK["workloads"]]),
    ("--claim", "p50_ms", [m["name"] for m in BENCHMARK["end_to_end"]]),
])
def test_names_not_in_the_benchmark_refused_before_any_tree_is_built(
        monkeypatch, capsys, flag, value, known):
    # an unknown workload used to export and copy both trees before
    # run.py refused it, and an unknown claim was written to the record
    built = []
    monkeypatch.setattr(bench_pairs, "fresh", built.append)
    argv = {"--pr": "0", "--workload": "sweep", "--seed": "1", "--pairs": "1",
            flag: value}
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([arg for item in argv.items() for arg in item])
    assert exc.value.code == 2
    assert built == []
    assert (f"{flag} must be one of {', '.join(known)}, got {value!r}"
            in capsys.readouterr().err)


def test_src_lines_counts_python_files_under_src_in_both_trees(tmp_path, capsys):
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    files = {
        "parent": {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/sub/b.py": "z = 3\n",
                   "src/pkg/data.txt": "not\ncounted\n", "tests/t.py": "t = 0\n"},
        "change": {"src/pkg/a.py": "x = 1\n", "src/pkg/data.txt": "not\n"},
    }
    for side, tree in trees.items():
        for name, text in files[side].items():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text(text)
    assert bench_pairs.src_lines(trees) == {"parent": 3, "change": 1}
    assert capsys.readouterr().out == "src/ lines: 3 -> 1 (-2)\n"
