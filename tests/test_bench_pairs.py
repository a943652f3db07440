"""The aggregation of ``tools/bench_pairs.py``, on canned ``bench/run.py``
output; the tool's runs themselves take minutes and are not tested here."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

GATED = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())["end_to_end"]


def _stdout(p50, p90, rate, correct=True):
    """What bench/run.py prints, down to its closing JSON line."""
    metrics = {"solve_ms.p50": (p50, "ms"), "solve_ms.p90": (p90, "ms"),
               "games_per_s": (rate, "1/s"), "setup_s": (1.5, "s"),
               "peak_rss_mb": (40.0, "MB")}
    lines = ["strahler-lc seed 1: 400 solves of 525 games in 35.0 s, closed loop, 1 client",
             *(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
             "fail_frac 0 frac (0 of 400)",
             json.dumps({"correct": correct, "attempted": 400, "failed": 0 if correct else 1,
                         "metrics": {name: {"value": value, "unit": unit}
                                     for name, (value, unit) in metrics.items()}})]
    return "\n".join(lines) + "\n"


def _pairs(parent_p50, change_p50):
    return [{"parent": bench_pairs.parse_run(_stdout(p, 2 * p, 1000 / p)),
             "change": bench_pairs.parse_run(_stdout(c, 2 * c, 1000 / c))}
            for p, c in zip(parent_p50, change_p50)]


def test_parse_run_reads_the_closing_json_line():
    run = bench_pairs.parse_run(_stdout(9.0, 12.0, 100.0, correct=False))
    assert run["correct"] is False
    assert run["metrics"]["solve_ms.p90"] == {"value": 12.0, "unit": "ms"}


def test_summary_quartiles_wins_and_ratio():
    parent = [9.0, 9.4, 9.2, 9.6, 9.1, 9.3, 9.5, 9.0, 9.2, 9.4]
    change = [8.0, 8.2, 9.3, 8.1, 8.3, 8.0, 8.4, 8.2, 8.1, 8.0]
    out = bench_pairs.summarise(_pairs(parent, change), GATED)
    p50 = out["solve_ms.p50"]
    assert p50["pairs"] == 10 and p50["pairs_won"] == 9 and p50["pairs_lost"] == 1
    assert p50["parent"] == pytest.approx({"q1": 9.125, "median": 9.25, "q3": 9.4})
    assert p50["change"]["median"] == pytest.approx(8.15)
    assert p50["median_ratio"] == pytest.approx(8.15 / 9.25)
    assert p50["parent_iqr"] == pytest.approx(0.275)
    assert p50["median_gain_beyond_iqr"] is True
    # games_per_s is better when higher: the same pairs win it
    rate = out["games_per_s"]
    assert rate["better"] == "higher" and rate["pairs_won"] == 9
    assert rate["median_gain_beyond_iqr"] is True
    # equal set-up times: every pair a tie, no gain
    setup = out["setup_s"]
    assert setup["pairs_won"] == setup["pairs_lost"] == 0
    assert setup["median_ratio"] == 1.0 and setup["median_gain_beyond_iqr"] is False


def test_summary_of_one_pair_and_of_a_loss():
    out = bench_pairs.summarise(_pairs([9.0], [9.5]), GATED)["solve_ms.p50"]
    assert out["parent"] == {"q1": 9.0, "median": 9.0, "q3": 9.0}
    assert out["pairs_won"] == 0 and out["pairs_lost"] == 1
    assert out["median_gain_beyond_iqr"] is False


def test_summary_skips_a_metric_a_side_lacks():
    runs = _pairs([9.0, 9.2], [8.0, 8.1])
    del runs[0]["parent"]["metrics"]["peak_rss_mb"]
    del runs[1]["parent"]["metrics"]["peak_rss_mb"]
    out = bench_pairs.summarise(runs, GATED)
    assert "peak_rss_mb" not in out and out["solve_ms.p90"]["pairs"] == 2
