"""Smoke test of the benchmark at a tiny node budget.

Runs every workload in-process, untraced and traced, and checks the result
shape, the fingerprint check and that tracing leaves the library unpatched.
"""

from __future__ import annotations

import heapq
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import poclkit.search  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.plancheck import PlanCheckError  # noqa: E402
from perfbench.tracer import SITES, resolve  # noqa: E402

TINY = 300     # node budget


def _metric_names(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _site_values() -> list:
    paths = [(m, p) for m, p, _, _ in SITES] + list(workloads.SearchLog.SITES)
    return [getattr(*resolve(m, p)) for m, p in paths]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_reported_and_every_site_restored(name, tmp_path):
    before = _site_values()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = workloads.run(name, ROOT, 0, 0.0, trace, str(tmp_path / kind),
                               node_budget=TINY)
        assert set(result["metrics"]) == _metric_names(kind)
        assert result["failed"] == 0, result["errors"]
    assert poclkit.search.heapq is heapq
    assert all(a is b for a, b in zip(before, _site_values()))


def test_tampered_golden_entry_counts_as_failure(tmp_path):
    clean = workloads.run("suite-reuse", ROOT, 0, 0.0, False, str(tmp_path / "clean"),
                          node_budget=TINY)
    golden = dict(clean["fingerprint"])
    key = min(k for k in golden if k != "node_budget")
    assert workloads.run("suite-reuse", ROOT, 5, 0.0, False, str(tmp_path / "same"),
                         golden=golden, node_budget=TINY)["metrics"]["success_rate"] == 1.0
    golden[key] = dict(golden[key], generated=golden[key]["generated"] + 1)
    tampered = workloads.run("suite-reuse", ROOT, 0, 0.0, False, str(tmp_path / "tampered"),
                             golden=golden, node_budget=TINY)
    assert tampered["failed"] == 1
    assert tampered["metrics"]["success_rate"] < 1.0


def test_plan_check_rejects_a_plan_missing_a_step(tmp_path):
    workload = workloads.make_workload("suite-plain", ROOT, 0, str(tmp_path), TINY)
    text = "0: (pick ball1 rooma left)\n1: (move rooma roomb)\n2: (drop ball1 roomb left)\n"
    assert workload.simulators["gripper-1"].check(text) == 3
    with pytest.raises(PlanCheckError):
        workload.simulators["gripper-1"].check(text.split("\n", 1)[1])
