"""The paired-run summary of ``tools/ab_pairs.py`` (the runs themselves are not tested)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)
summarize = ab_pairs.summarize


def test_sides_report_median_and_inclusive_quartiles():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0], "lower")
    assert summary["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert summary["change"] == {"median": 6.0, "q1": 4.0, "q3": 8.0}
    assert summary["ratio"] == {"median": 2.0, "min": 2.0, "max": 2.0}
    assert summary["wins"] == 0 and not summary["gain"]


def test_a_clear_gain_holds_in_either_direction():
    parent = [10.0, 10.5, 11.0, 11.5, 12.0, 10.0, 10.5, 11.0, 11.5, 12.0]
    faster = [0.8 * v for v in parent]
    summary = summarize(parent, faster, "lower")
    assert summary["wins"] == 10 and summary["gain"]
    assert summary["ratio"]["median"] == pytest.approx(0.8)
    # The same numbers read as a rate, where higher is better: no win.
    assert summarize(parent, faster, "higher")["wins"] == 0
    assert summarize(faster, parent, "higher")["gain"]


def test_nine_tenths_of_pairs_and_more_than_the_parent_spread_are_both_needed():
    parent = [100.0] * 10
    eight_wins = [90.0] * 8 + [110.0] * 2
    assert summarize(parent, eight_wins, "lower")["wins"] == 8
    assert not summarize(parent, eight_wins, "lower")["gain"]
    assert summarize(parent, [90.0] * 9 + [110.0], "lower")["gain"]
    # Nine wins, but the medians (100 and 98) differ by less than the
    # parent's quartile distance (102.75 - 97.25).
    wide = [94.0, 96.0, 97.0, 98.0, 100.0, 100.0, 102.0, 103.0, 104.0, 106.0]
    close = [v - 2.0 for v in wide[:9]] + [wide[9] + 1.0]
    summary = summarize(wide, close, "lower")
    assert summary["wins"] == 9 and not summary["gain"]


def test_ties_count_for_neither_side():
    summary = summarize([5.0, 5.0, 5.0], [5.0, 4.0, 6.0], "lower")
    assert summary["wins"] == 1
    assert summarize([7.0], [7.0], "higher")["wins"] == 0


def test_mismatched_or_empty_runs_are_refused():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarize([], [], "lower")
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "smaller")
