"""The pair statistics of tests/benchpair.py on fixed numbers; the runs stay out."""

import pytest

from benchpair import quartiles, summarize


def test_quartiles_are_inclusive_and_one_value_is_all_three():
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == [1.75, 2.5, 3.25]
    assert quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_a_higher_is_better_gain_counts_wins_and_beats_the_parent_iqr():
    parent = [100.0, 104.0, 98.0, 102.0, 101.0]
    change = [110.0, 103.0, 111.0, 109.0, 101.0]  # pair 2 lost, pair 5 tied
    s = summarize(parent, change, "higher", 0.25)
    assert s["parent_quartiles"] == [100.0, 101.0, 102.0]
    assert s["change_quartiles"] == [103.0, 109.0, 110.0]
    assert (s["wins"], s["pairs"]) == (3, 5)
    assert (s["median_gain"], s["parent_iqr"]) == (8.0, 2.0)
    assert s["gain_exceeds_parent_iqr"] and not s["gain_shown"]  # 3 of 5 is below 9 in 10
    assert s["bound_holds"]


def test_a_lower_is_better_metric_gains_when_it_falls():
    parent = [0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47, 0.50, 0.52]
    change = [p - 0.1 for p in parent]
    s = summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 10 and s["gain_shown"] and s["bound_holds"]
    assert s["median_gain"] == pytest.approx(0.1)
    # nine wins in ten still show a gain; eight do not
    assert summarize(parent, change[:9] + [0.60], "lower", 0.25)["gain_shown"]
    assert not summarize(parent, change[:8] + [0.60, 0.60], "lower", 0.25)["gain_shown"]


def test_the_bound_is_relative_to_the_parent_median_in_the_worse_direction():
    # lower is better: 25% above the parent's median holds, just past it fails
    assert summarize([1.0, 1.0], [1.25, 1.25], "lower", 0.25)["bound_holds"]
    assert not summarize([1.0, 1.0], [1.26, 1.26], "lower", 0.25)["bound_holds"]
    # higher is better: 20% below holds, further fails
    assert summarize([10.0, 10.0], [8.0, 8.0], "higher", 0.2)["bound_holds"]
    assert not summarize([10.0, 10.0], [7.9, 7.9], "higher", 0.2)["bound_holds"]
    # a gain no larger than the parent's own spread is not shown, however many wins
    s = summarize([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5], "higher", 0.25)
    assert s["wins"] == 4 and s["parent_iqr"] == 1.5 and not s["gain_shown"]
