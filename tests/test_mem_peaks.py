"""tools/mem_peaks.py: the tracemalloc peak of the four memory searches."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import mem_peaks  # noqa: E402


def test_each_search_stops_at_the_budget_and_reports_its_peak():
    rows = mem_peaks.measure(300)
    assert [(problem, feature) for problem, feature, *_ in rows] == \
        [(problem, feature) for problem, feature, _ in mem_peaks.SEARCHES]
    for _, _, facts, outcome, generated, peak in rows:
        assert (outcome, generated) == ("limit-hit", 300)
        assert facts > 0 and peak > 0
    # the made problem is the one with a few hundred facts
    assert rows[-1][:3] == ("blocks-15", "h_add", 271)
