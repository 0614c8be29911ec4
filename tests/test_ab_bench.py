"""``tools/ab_bench.py``'s summary of paired runs, on synthetic records."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

SPECS = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.2},
         {"name": "snr", "unit": "dB", "better": "higher", "bound": 0.03}]


def runs(*values):
    """Records of runs reporting ``t`` (and ``snr`` at 20 dB); ``None`` omits ``t``."""
    return [{"metrics": {"t": v, "snr": 20.0}} for v in values]


def test_medians_quartiles_wins_and_a_gain():
    s = ab_bench.summarize(runs(10, 11, 12, 13, 14), runs(8, 9, 10, 11, 15), SPECS)["t"]
    assert (s["a_median"], s["b_median"]) == (12.0, 10.0)
    assert s["a_q1_q3"] == [11.0, 13.0] and s["b_q1_q3"] == [9.0, 11.0]
    assert (s["a_iqr"], s["b_wins"], s["ties"], s["pairs"]) == (2.0, 4, 0, 5)
    assert s["b_vs_a_pct"] == pytest.approx(-100 / 6)
    # 4 of 5 wins is short of nine tenths
    assert s["verdict"] == "within bound"
    assert ab_bench.summarize(runs(10, 11, 12, 13, 14), runs(7, 8, 9, 10, 11),
                              SPECS)["t"]["verdict"] == "gain"


def test_higher_is_better_counts_wins_the_other_way_and_ties_for_neither():
    a = [{"metrics": {"t": 1.0, "snr": v}} for v in (20.0, 21.0, 22.0)]
    b = [{"metrics": {"t": 1.0, "snr": v}} for v in (19.0, 21.0, 23.0)]
    got = ab_bench.summarize(a, b, SPECS)
    assert (got["snr"]["b_wins"], got["snr"]["ties"]) == (1, 1)
    assert (got["t"]["b_wins"], got["t"]["ties"], got["t"]["verdict"]) == (0, 3, "within bound")
    worse = [{"metrics": {"t": 1.0, "snr": v}} for v in (19.0, 19.5, 20.0)]
    assert ab_bench.summarize(a, worse, SPECS)["snr"]["verdict"] == "worse beyond bound"


def test_pairs_missing_a_value_or_a_run_are_left_out():
    a = runs(10, None, 12) + [{"error": "boom"}]
    b = runs(10, 10, None) + runs(1)
    s = ab_bench.summarize(a, b, SPECS)["t"]
    assert (s["pairs"], s["a_median"], s["ties"]) == (1, 10.0, 1)
    assert ab_bench.summarize(runs(None), runs(1), SPECS)["t"] == {"pairs": 0,
                                                                    "verdict": "no pairs"}


def test_a_spread_wider_than_the_bound_is_unresolved_unless_b_beats_every_a_run():
    a = runs(8, 9, 13, 14)  # median 11, a_iqr 4.5 against a bound of 2.2
    assert ab_bench.summarize(a, runs(9, 10, 11, 15), SPECS)["t"]["verdict"] == "unresolved"
    # every b run below every a run, though the medians differ by less than a_iqr
    assert ab_bench.summarize(a, runs(7.9, 7.8, 7.7, 7.6),
                              SPECS)["t"]["verdict"] == "within bound"
    assert ab_bench.summarize(a, runs(14, 15, 16, 17), SPECS)["t"]["verdict"] == \
        "worse beyond bound"
