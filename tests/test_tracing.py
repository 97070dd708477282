"""The benchmark's traced spans stay on the library's call path.

The tracer patches names that callers look up at call time. A refactor that
moves a call off such a name (a helper called directly, a binding taken
before the patch) leaves its span at zero calls without any error, so one
traced unit at a tiny node budget must record calls at every hot span.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

HOT_SPANS = ("plans.apply", "plans.resolvers", "heuristics.eval", "search.flaw",
             "search.queue", "bench.cell")


def test_traced_unit_records_every_hot_span(tmp_path):
    result = workloads.run("suite-plain", ROOT, 0, 0.0, True, str(tmp_path), node_budget=50)
    assert result["correct"], result["errors"]
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        edges = json.load(fh)["edges"]
    calls = {span: sum(e["calls"] for e in edges if e["span"] == span) for span in HOT_SPANS}
    assert all(n > 0 for n in calls.values()), calls
