"""The command line of scripts/bench_pairs.py, and its summary on canned
benchmark result lines."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "norm_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def result_line(wall: float, rate: float) -> str:
    return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {"norm_wall_s": {"value": wall, "unit": "s"},
                                   "rate": {"value": rate, "unit": "1/s"}}})


def test_summary_lists_pairs_medians_quartiles_and_wins():
    pairs = [(171, result_line(0.80, 10.0), result_line(0.75, 11.0)),
             (172, result_line(0.82, 10.0), result_line(0.76, 9.0)),
             (173, result_line(0.84, 12.0), result_line(0.84, 12.5)),
             (174, result_line(0.86, 11.0), result_line(0.70, 11.0)),
             (175, result_line(0.90, 10.0), result_line(0.78, 10.5))]
    lines = bench_pairs.summarize(METRICS, pairs)
    wall = lines[:lines.index("rate (1/s, higher is better)")]
    assert wall[0] == "norm_wall_s (s, lower is better)"
    assert wall[2].split() == ["1", "171", "0.8", "0.75"]
    assert wall[6].split() == ["5", "175", "0.9", "0.78"]
    assert wall[7] == "  parent: median 0.84, quartiles 0.82 .. 0.86"
    assert wall[8] == "  change: median 0.76, quartiles 0.75 .. 0.78"
    # the tie at seed 173 is not a win
    assert wall[9] == "  change won 4 of 5 pairs"
    assert lines[-1] == "  change won 3 of 5 pairs"


def test_summary_of_one_pair():
    lines = bench_pairs.summarize(METRICS[:1], [(1, result_line(1.0, 0.0),
                                                 result_line(1.5, 0.0))])
    assert lines[-3:] == ["  parent: median 1, quartiles 1 .. 1",
                          "  change: median 1.5, quartiles 1.5 .. 1.5",
                          "  change won 0 of 1 pairs"]


def traced_line(counts: dict, self_s: float) -> str:
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    metrics["tracer.trace.plain.self_s"] = {"value": self_s, "unit": "s"}
    return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})


def test_counts_list_both_sides_and_mark_the_ones_that_differ():
    layer = [{"name": "tracer.trace.plain.calls", "unit": "count", "better": "lower"},
             {"name": "tracer.trace.plain.self_s", "unit": "s", "better": "lower"},
             {"name": "saddles.trace_connection.calls", "unit": "count", "better": "lower"},
             {"name": "saddles.trace_connection.accept_ratio", "unit": "ratio",
              "better": "higher"},
             {"name": "tracer.develop.calls", "unit": "count", "better": "lower"}]
    parent = traced_line({"tracer.trace.plain.calls": 1164,
                          "saddles.trace_connection.calls": 856,
                          "tracer.develop.calls": 188}, 0.07)
    change = traced_line({"tracer.trace.plain.calls": 356,
                          "saddles.trace_connection.calls": 48,
                          "tracer.develop.calls": 188}, 0.02)
    assert bench_pairs.count_lines(layer, parent, change) == [
        "  count                               parent      change",
        "  tracer.trace.plain.calls              1164         356  *",
        "  saddles.trace_connection.calls         856          48  *",
        "  tracer.develop.calls                   188         188",
        "  2 of 3 counts differ (marked *)"]


def test_counts_of_equal_runs_mark_nothing():
    layer = [{"name": "tracer.develop.calls", "unit": "count", "better": "lower"}]
    line = traced_line({"tracer.develop.calls": 0}, 0.0)
    assert bench_pairs.count_lines(layer, line, line) == [
        "  count                     parent      change",
        "  tracer.develop.calls           0           0",
        "  0 of 1 counts differ (marked *)"]


WORKLOADS = ["trace_long", "density_golden", "covers_cylinders"]


def test_workload_flag_repeats_in_order_each_once():
    args = bench_pairs.parse_args(["--rev", "HEAD~1", "--workload", "covers_cylinders",
                                   "--workload", "trace_long", "--workload",
                                   "covers_cylinders"], WORKLOADS)
    assert args.workload == ["covers_cylinders", "trace_long"]
    assert (args.rev, args.pairs, args.seconds, args.seed) == ("HEAD~1", 10, None, 1)
    assert not args.counts
    assert bench_pairs.parse_args(["--rev", "x", "--workload", "all", "--counts"],
                                  WORKLOADS).counts


def test_workload_all_is_every_workload():
    for argv in (["--workload", "all"], ["--workload", "trace_long", "--workload", "all"]):
        assert bench_pairs.parse_args(["--rev", "x", *argv], WORKLOADS).workload == WORKLOADS


@pytest.mark.parametrize("argv", [["--rev", "x"], ["--rev", "x", "--workload", "trace"]])
def test_missing_or_unknown_workload_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(argv, WORKLOADS)
    assert exc.value.code == 2
    assert "workload" in capsys.readouterr().err


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]   # IQR 0.045
WIDE = [0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4, 1.5]               # IQR 0.55


@pytest.mark.parametrize("parent, change, want", [
    (PARENT, [a - 0.06 for a in PARENT], "gain"),
    # 10 of 10 won, but a median gap inside the parent's IQR
    (PARENT, [a - 0.04 for a in PARENT], "within bound"),
    # a wide gap, but 8 of 10 won
    (PARENT, [a - 0.06 for a in PARENT[:8]] + [a + 0.01 for a in PARENT[8:]], "within bound"),
    (PARENT, [a * 1.2 for a in PARENT], "within bound"),
    (PARENT, [a * 1.3 for a in PARENT], "worse than bound"),
    # a parent IQR wider than the bound: unresolved, unless every run of
    # the change reads better than every run of the parent
    (WIDE, WIDE[::-1], "unresolved"),
    (WIDE, [0.45, 0.46, 0.47, 0.48, 0.49] * 2, "within bound"),
    (WIDE, [a * 1.3 for a in WIDE], "worse than bound"),
])
def test_verdict_of_a_lower_is_better_metric(parent, change, want):
    assert bench_pairs.verdict(METRICS[0], parent, change) == want


def test_verdict_of_a_higher_is_better_metric_without_bound():
    rate = METRICS[1]
    assert bench_pairs.verdict(rate, PARENT, [a + 0.06 for a in PARENT]) == "gain"
    assert bench_pairs.verdict(rate, PARENT, [a - 0.06 for a in PARENT]) == "unresolved"


def test_verdict_lines_name_each_metric_with_its_numbers():
    pairs = [(seed, result_line(a, 10.0), result_line(a - 0.06, 10.0))
             for seed, a in enumerate(PARENT, 1)]
    assert bench_pairs.verdict_lines(METRICS, pairs) == [
        "verdicts (gain: won >= 9/10 and median gap > parent IQR; bounds of BENCHMARK.json)",
        "  norm_wall_s: gain (median 1.045 -> 0.985, -5.7%; parent IQR 0.045; bound 25%)",
        "  rate: unresolved (median 10 -> 10, +0.0%; parent IQR 0; bound none)"]
