"""Step-error arithmetic, enhancement identities, and trace replay."""

from __future__ import annotations

import math

import pytest

from poclkit.heuristics import FEATURE_NAMES, build_tables
from poclkit.learning import LinearModel
from poclkit.plans import format_plan
from poclkit.search import FeatureEvaluator, ModelEvaluator, SearchLimits, gbfs
from poclkit.tuning import (ErrorTracker, TraceRow, read_trace, replay_telescoping,
                            step_error, write_trace)

from conftest import load_fixture_task


# ── step_error ───────────────────────────────────────────────────────────────

def test_step_error_perfect_heuristic():
    assert step_error(5.0, 4.0, 1.0) == 0.0


def test_step_error_stalled_heuristic():
    assert step_error(5.0, 5.0, 1.0) == 1.0


def test_step_error_overshooting_heuristic():
    assert step_error(5.0, 3.0, 1.0) == -1.0


def test_step_error_rejects_non_finite():
    with pytest.raises(ValueError):
        step_error(math.inf, 4.0)
    with pytest.raises(ValueError):
        step_error(5.0, math.nan)


# ── tracker ──────────────────────────────────────────────────────────────────

def test_observe_single_error():
    tracker = ErrorTracker()
    tracker.observe(1.0)
    assert tracker.epsilon_avg == 1.0
    assert tracker.epsilon == 0.9       # clamped for enhancement


def test_observe_mixed_errors_average_zero():
    tracker = ErrorTracker()
    for e in (0.0, 1.0, -1.0):
        tracker.observe(e)
    assert tracker.epsilon_avg == 0.0


def test_fresh_tracker_identity():
    tracker = ErrorTracker()
    assert tracker.epsilon_avg == 0.0
    for h in (0.0, 1.0, 7.5, 100.0):
        assert tracker.enhance(h) == h


def test_enhance_scaling():
    tracker = ErrorTracker()
    tracker.observe(0.5)
    assert tracker.enhance(4.0) == pytest.approx(8.0)


def test_enhance_clamps_divergent_average():
    tracker = ErrorTracker()
    tracker.observe(2.0)      # raw average 2 would make the denominator negative
    assert tracker.enhance(1.0) == pytest.approx(10.0)


def test_enhance_negative_average_shrinks():
    tracker = ErrorTracker()
    tracker.observe(-1.0)
    assert tracker.enhance(4.0) == pytest.approx(2.0)
    assert tracker.enhance(4.0) >= 0.0


def test_enhance_infinite_passthrough():
    tracker = ErrorTracker()
    tracker.observe(0.5)
    assert tracker.enhance(math.inf) == math.inf


def test_enhance_order_preserving():
    for eps in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.89):
        tracker = ErrorTracker(error_sum=eps, observations=1)
        values = [0.0, 0.5, 1.0, 3.0, 10.0, 250.0]
        enhanced = [tracker.enhance(v) for v in values]
        assert enhanced == sorted(enhanced)
        for a, b in zip(values, values[1:]):
            assert tracker.enhance(a) < tracker.enhance(b)


# ── geometric form ───────────────────────────────────────────────────────────

def test_geometric_single_term():
    tracker = ErrorTracker(error_sum=0.5, observations=1)
    assert tracker.geometric_enhance(4.0, 1) == 4.0


def test_geometric_converges_to_closed_form():
    tracker = ErrorTracker(error_sum=0.5, observations=1)
    assert tracker.geometric_enhance(4.0, 20) == pytest.approx(8.0, abs=1e-4)


def test_geometric_zero_average_identity():
    tracker = ErrorTracker()
    for terms in (1, 3, 64):
        assert tracker.geometric_enhance(7.0, terms) == 7.0


def test_geometric_requires_positive_terms():
    with pytest.raises(ValueError):
        ErrorTracker().geometric_enhance(1.0, 0)


def test_geometric_matches_enhance_on_grid():
    for eps in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.89):
        tracker = ErrorTracker(error_sum=eps, observations=1)
        for h in (0.0, 1.0, 7.0, 100.0):
            assert abs(tracker.enhance(h) - tracker.geometric_enhance(h, 64)) <= 1e-9


# ── Theorem base case and telescoping ────────────────────────────────────────

def test_base_case_one_step_from_solution():
    # parent one unit-cost refinement from a solution: h(child) = 0
    for h_parent in (0.0, 1.0, 4.0, 9.5):
        h_e = h_parent + step_error(h_parent, 0.0, 1.0)
        assert h_e == 1.0


def test_telescoping_on_recorded_search():
    task = load_fixture_task("gripper.pddl", "gripper-2.pddl")
    tables = build_tables(task)
    result = gbfs(task, FeatureEvaluator("h_add", tables), "mw-loc",
                  SearchLimits(50000, 30.0), tables, record_trace=True)
    assert result.solved
    report = replay_telescoping(result.trace, result.solution_node_id)
    assert report.new_steps == result.plan_length
    assert report.h_root + report.error_sum == report.new_steps
    assert report.residual == 0.0


def test_trace_csv_round_trip(tmp_path):
    rows = [TraceRow(0, -1, 6.0, 0, False), TraceRow(1, 0, 5.0, 1, True),
            TraceRow(2, 0, math.inf, 1, False), TraceRow(3, 1, 0.0, 2, True)]
    path = str(tmp_path / "trace.csv")
    write_trace(path, rows)
    back = read_trace(path)
    assert back == rows
    with open(path) as fh:
        assert fh.readline().strip() == "node_id,parent_id,h,action_count,is_best_child"


def _tuned(feature, tables, tracker):
    """``feature`` tuned online by ``tracker``: a model of the feature alone
    with weight 1 and intercept 0 ranks exactly as the feature does, since a
    feature is >= 0 (the model's clamp at 0 never acts) and +inf stays +inf."""
    return ModelEvaluator(LinearModel((1.0,), 0.0, (FEATURE_NAMES.index(feature),)), tables,
                          tracker)


def test_zero_cost_refinements_excluded_by_default(chain_task):
    # solving the chain task takes two new steps plus one reuse of the initial
    # dummy; only the two unit-cost steps are observed
    tables = build_tables(chain_task)
    evaluator = _tuned("h_add", tables, ErrorTracker())
    result = gbfs(chain_task, evaluator, "mw-loc", SearchLimits(1000, 5.0), tables)
    assert result.solved
    assert evaluator.tracker.observations == 2


def test_zero_observation_tracker_ranks_identically():
    # with no observations, enhancement is bitwise identity on every rank
    task = load_fixture_task("gripper.pddl", "gripper-1.pddl")
    tables = build_tables(task)
    raw = FeatureEvaluator("h_add", tables)
    tracker = ErrorTracker()
    probe = gbfs(task, raw, "mw-loc", SearchLimits(5000, 10.0), tables, record_trace=True)
    plans = probe.generated_plans[:50]
    assert plans
    for plan in plans:
        h = raw.rank(plan)
        assert tracker.enhance(h) == h


class _FrozenTracker(ErrorTracker):
    """A tracker whose average stays where it starts: ``observe`` does nothing."""

    def observe(self, error: float) -> None:
        pass


def _fingerprint(result):
    text = format_plan(result.plan) if result.solved else None
    return result.outcome, text, result.visited, result.generated


@pytest.mark.parametrize("problem", ["gripper-3.pddl", "blocks-4.pddl"])
@pytest.mark.parametrize("feature", ["h_add", "h_add_r"])
def test_frozen_tracker_reproduces_raw_search(problem, feature):
    # one epsilon for every node makes h / (1 - epsilon) a monotone rescale,
    # so a tracker frozen at 0.5 cannot reorder the queue
    domain = "gripper.pddl" if problem.startswith("gripper") else "blocks.pddl"
    task = load_fixture_task(domain, problem)
    tables = build_tables(task)
    frozen = _FrozenTracker(error_sum=0.5, observations=1)
    assert frozen.epsilon == 0.5
    limits = SearchLimits(6000, 30.0)   # solves gripper-3 h_add and blocks-4 h_add_r
    raw = gbfs(task, FeatureEvaluator(feature, tables), "mw-loc", limits, tables)
    enhanced = gbfs(task, _tuned(feature, tables, frozen), "mw-loc", limits, tables)
    assert frozen.epsilon == 0.5
    assert _fingerprint(enhanced) == _fingerprint(raw)
