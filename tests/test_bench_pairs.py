"""The pair runner's summary: medians, inclusive quartiles and wins."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "p50", "better": "lower", "bound": 0.2},
                       {"name": "rate", "better": "higher", "bound": 0.1}]}


def result(p50, rate, failed=0, digest="d1"):
    return {"failed": failed, "attempted": 10, "output_sha256": digest,
            "metrics": {"p50": {"value": p50}, "rate": {"value": rate}},
            "host_slowdown": 1.0}


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
