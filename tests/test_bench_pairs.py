"""The verdicts of tools/bench_pairs.py on hand-made pairs of runs."""

import pytest
from bench_pairs import compare, info_lines, runs_note, verdicts


def verdict(parent, change, better="lower", bound=0.24):
    return verdicts(compare(parent, change, better), better, bound)


def test_change_within_bound_of_a_tight_parent_is_kept():
    claim, bound, rel = verdict([100.0, 101.0, 99.0, 100.0], [102.0, 103.0, 101.0, 102.0])
    assert (claim, bound) == (False, "kept")
    assert rel == pytest.approx(0.02)


def test_change_beyond_the_bound_is_exceeded():
    _, bound, rel = verdict([100.0, 101.0, 99.0, 100.0], [130.0, 131.0, 129.0, 130.0])
    assert bound == "EXCEEDED"
    assert rel == pytest.approx(0.3)


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # The rope_damped case: a parent IQR of 26% of its median against a 24%
    # bound; a change that reads 1% slower cannot be told from noise.
    parent = [30.0, 33.0, 35.0, 36.0, 38.0, 40.0, 44.0, 46.0, 50.0, 56.0]
    change = [v * 1.01 for v in parent]
    claim, bound, _ = verdict(parent, change)
    assert (claim, bound) == (False, "unresolved")


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_change_that_beats_every_parent_run_stays_kept_under_a_wide_spread(better):
    parent = [30.0, 40.0, 50.0, 60.0]  # IQR 15, half the median
    change = [25.0, 26.0, 27.0, 28.0] if better == "lower" else [70.0, 71.0, 72.0, 73.0]
    claim, bound, _ = verdict(parent, change, better=better)
    assert bound == "kept"
    assert claim


def test_info_lines_print_each_sides_median():
    # run_s and the tick percentiles are stored under "info"; the report
    # shows each side's median beside the end-to-end verdicts.
    info = {
        "run_s": {"parent": [1.0, 3.0, 2.0], "change": [2.4, 2.0, 2.2]},
        "tick_p50_us": {"parent": [100.0, 120.0], "change": [99.0, 99.0]},
    }
    lines = info_lines(info)
    assert [line.split() for line in lines] == [
        ["run_s", "parent", "2", "change", "2.2", "(+10.0%)", "info"],
        ["tick_p50_us", "parent", "110", "change", "99", "(-10.0%)", "info"],
    ]


def test_runs_note_prints_each_sides_median_runs():
    # A faster change fits more runs into the same seconds, and each run
    # raises the next worker's peak RSS, so the peak_rss_mb line shows both.
    note = runs_note({"parent": [52, 53, 51, 60], "change": [55, 58, 57]})
    assert note.split() == ["runs/invocation", "parent", "52.5", "change", "57"]
