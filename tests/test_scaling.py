"""The aggregation of ``tools/scaling.py``, on canned series; the tool's runs
themselves take minutes and are not tested here."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import scaling  # noqa: E402


def _series(seconds, phases=5):
    """What one series prints: every tree at sizes 500 and 1000, the larger
    one taking twice as long."""
    return {tree: {"500": [seconds * k, phases], "1000": [2 * seconds * k, phases + 1]}
            for k, tree in enumerate(scaling.TREES, start=1)}


def test_summary_medians_mins_and_ratio():
    runs = [{"parent": _series(p), "change": _series(c)}
            for p, c in ((1.0, 0.8), (3.0, 0.9), (2.0, 0.7))]
    out = scaling.summarise(runs)
    assert sorted(out) == sorted(scaling.TREES)
    row = out["perfect"]["500"]
    assert row["parent"] == {"median_s": 2.0, "min_s": 1.0, "phases": 5}
    assert row["change"]["median_s"] == pytest.approx(0.8)
    assert row["change"]["min_s"] == pytest.approx(0.7)
    assert row["median_ratio"] == pytest.approx(0.4)
    # the succinct series takes twice the perfect one, at every size
    assert out["succinct"]["1000"]["parent"] == {"median_s": 8.0, "min_s": 4.0, "phases": 6}
    assert out["strahler"]["1000"]["median_ratio"] == pytest.approx(0.4)


def test_summary_of_one_run():
    out = scaling.summarise([{"parent": _series(2.0), "change": _series(3.0, phases=7)}])
    row = out["strahler"]["500"]
    assert row["parent"]["median_s"] == row["parent"]["min_s"] == 6.0
    assert row["change"] == {"median_s": 9.0, "min_s": 9.0, "phases": 7}
    assert row["median_ratio"] == pytest.approx(1.5)
