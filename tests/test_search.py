"""Flaw selection, expansion, best-child, and greedy best-first search."""

from __future__ import annotations

import gc
import heapq
import math
import re
from random import Random
from types import SimpleNamespace
from unittest.mock import patch

import pytest

from poclkit import search
from poclkit.heuristics import FEATURE_NAMES, build_tables
from poclkit.learning import LinearModel
from poclkit.plans import (GOAL_STEP, NewStepBase, OpenCondition, PartialPlan, Resolver, Threat,
                           is_solution, new_step_actions, null_plan, resolvers, step_sequence,
                           validate)
from poclkit.search import (FeatureEvaluator, ModelEvaluator, SearchLimits, _best_index, expand,
                            gbfs, select_flaw)
from poclkit.tuning import ErrorTracker

from conftest import live_plans, load_fixture_task, make_task
from oracles import (bfs_optimal_length, collect_flaws, min_new_actions, new_step_children,
                     random_linearization, refinements)


# ── select_flaw ──────────────────────────────────────────────────────────────

def _costed_task():
    # facts 0..4; goal {3, 4}; chains of different plain cost:
    #   3 <- via two actions (cost 2+), 4 <- one action (cost 1)
    return make_task(5, [({0}, {1}, set()), ({1}, {3}, set()), ({0}, {4}, set())],
                     {0}, {3, 4})


def test_threat_selected_before_open_conditions():
    task = make_task(5, [(set(), {0}, set()), ({0}, {1}, set()), (set(), {2}, {0}),
                         (set(), {3}, set())],
                     set(), {1, 2, 3})    # fact 3 stays open
    plan = null_plan(task)
    for fact in (1, 0, 2):
        flaw = next(f for f in collect_flaws(plan)
                    if isinstance(f, OpenCondition) and f.fact == fact)
        (plan,) = new_step_children(plan, flaw, task)
    assert plan.threats and plan.open_conds
    tables = build_tables(task)
    for strategy in ("mc-loc", "mw-loc"):
        assert isinstance(select_flaw(plan, strategy, tables), Threat)


def test_mc_loc_picks_costliest_local_condition():
    task = _costed_task()
    tables = build_tables(task)
    plan = null_plan(task)
    # both goal conditions are local (consumer = goal dummy is newest)
    flaw = select_flaw(plan, "mc-loc", tables)
    assert flaw == OpenCondition(3, GOAL_STEP)     # plain cost 2 beats cost 1


def test_mw_loc_uses_effort_table():
    task = _costed_task()
    tables = build_tables(task)
    flaw = select_flaw(null_plan(task), "mw-loc", tables)
    assert flaw.fact == 3


def test_fallback_to_global_conditions():
    # after supporting the newest step's only precondition, no local OC remains
    task = make_task(4, [({0}, {1}, set()), (set(), {2}, set())], {0}, {1, 2})
    tables = build_tables(task)
    plan = null_plan(task)
    (plan,) = new_step_children(plan, OpenCondition(2, GOAL_STEP), task)
    # newest step has no preconditions
    assert all(oc.consumer != plan.newest_step for oc in plan.open_conds)
    flaw = select_flaw(plan, "mc-loc", tables)
    assert flaw == OpenCondition(1, GOAL_STEP)


def test_tie_broken_by_lowest_fact_index():
    task = make_task(4, [({0}, {1}, set()), ({0}, {2}, set())], {0}, {1, 2})
    tables = build_tables(task)
    flaw = select_flaw(null_plan(task), "mc-loc", tables)
    assert flaw.fact == 1


def test_unknown_strategy_rejected(chain_task):
    tables = build_tables(chain_task)
    with pytest.raises(ValueError):
        select_flaw(null_plan(chain_task), "newest-first", tables)


def test_plan_without_flaws_rejected():
    task = make_task(2, [({0}, {1}, set())], {0}, set())    # empty goal
    plan = null_plan(task)
    assert is_solution(plan)
    for strategy in ("mc-loc", "mw-loc"):
        with pytest.raises(ValueError, match="no flaw"):
            select_flaw(plan, strategy, build_tables(task))


# ── expand ───────────────────────────────────────────────────────────────────

def test_expand_dead_end_empty():
    task = make_task(2, [], {0}, {1})    # nothing achieves fact 1
    tables = build_tables(task)
    assert expand(null_plan(task), task, "mc-loc", tables) == []


def test_expand_reuse_and_new_child(gripper2, gripper2_tables):
    # a condition with one reuse and one new-step resolver yields two children
    task = make_task(3, [(set(), {1}, set())], {1}, {1, 2})
    tables = build_tables(task)
    plan = null_plan(task)
    flaw = OpenCondition(1, GOAL_STEP)
    assert [r.kind for r in resolvers(plan, flaw)] == ["reuse"]
    assert new_step_actions(plan, flaw.fact, task) == [task.actions[0]]
    children = refinements(plan, flaw, task)
    counts = sorted(c.action_count for c in children)
    assert counts == [0, 1]


def test_expand_threat_children_differ_in_orderings():
    task = make_task(4, [(set(), {0}, set()), ({0}, {1}, set()), (set(), {2}, {0})],
                     set(), {1, 2})
    plan = null_plan(task)
    for fact in (1, 0, 2):
        flaw = next(f for f in collect_flaws(plan)
                    if isinstance(f, OpenCondition) and f.fact == fact)
        (plan,) = new_step_children(plan, flaw, task)
    tables = build_tables(task)
    children = expand(plan, task, "mc-loc", tables)
    assert len(children) == 2
    assert children[0].steps == children[1].steps
    assert children[0].after != children[1].after


# ── best child (the rule gbfs ranks children by) ─────────────────────────────

def test_best_child_argmin():
    assert _best_index([4.0, 2.0, 7.0], [0, 0, 0]) == 1


def test_best_child_tie_break_fewer_actions(chain_task):
    plan = null_plan(chain_task)
    (deeper,) = new_step_children(plan, OpenCondition(2, GOAL_STEP), chain_task)
    assert _best_index([3.0, 3.0], [deeper.action_count, plan.action_count]) == 1
    assert _best_index([3.0, 3.0], [plan.action_count, plan.action_count]) == 0


def test_best_child_single():
    assert _best_index([9.0], [0]) == 0


# ── gbfs ─────────────────────────────────────────────────────────────────────

def test_gbfs_empty_goal_task():
    task = make_task(2, [({0}, {1}, set())], {0}, set())
    tables = build_tables(task)
    result = gbfs(task, FeatureEvaluator("h_add", tables), "mc-loc",
                  SearchLimits(100, 5.0), tables)
    assert result.solved
    assert result.plan_length == 0
    assert result.visited == 1


@pytest.mark.parametrize("problem", ["empty-goal", "gripper-1"])
@pytest.mark.parametrize("strategy", ["bogus", select_flaw])
def test_gbfs_rejects_unknown_strategy_before_ranking_the_root(problem, strategy):
    # the empty-goal root is a solution, so no flaw would ever be selected
    task = make_task(1, [], {0}, set()) if problem == "empty-goal" else \
        load_fixture_task("gripper.pddl", "gripper-1.pddl")
    ranked = []
    evaluator = SimpleNamespace(rank=ranked.append, rank_new_steps=None)
    with pytest.raises(ValueError, match=rf"^unknown flaw strategy {re.escape(repr(strategy))}$"):
        gbfs(task, evaluator, strategy, SearchLimits(100, 5.0), build_tables(task))
    assert ranked == []


def test_gbfs_gripper2_solves_and_validates(gripper2, gripper2_tables):
    result = gbfs(gripper2, FeatureEvaluator("h_add", gripper2_tables), "mw-loc",
                  SearchLimits(50000, 30.0), gripper2_tables)
    assert result.solved
    assert result.plan_length >= bfs_optimal_length(gripper2) == 5
    rng = Random(11)
    for _ in range(10):
        order = random_linearization(result.plan, rng)
        assert validate(gripper2, step_sequence(result.plan, order))


def test_gbfs_generation_limit():
    task = make_task(2, [({0}, {1}, set())], {0}, {1})
    tables = build_tables(task)
    result = gbfs(task, FeatureEvaluator("h_add", tables), "mc-loc",
                  SearchLimits(1, 5.0), tables)
    assert result.outcome == "limit-hit"
    assert result.generated <= 1


def test_gbfs_exhausts_unreachable_goal():
    task = make_task(2, [], {0}, {1})
    tables = build_tables(task)
    result = gbfs(task, FeatureEvaluator("h_oc", tables), "mc-loc",
                  SearchLimits(100, 5.0), tables)
    assert result.outcome == "exhausted"


def test_gbfs_deterministic(gripper2, gripper2_tables):
    runs = [gbfs(gripper2, FeatureEvaluator("h_add", gripper2_tables), "mw-loc",
                 SearchLimits(50000, 30.0), gripper2_tables) for _ in range(2)]
    assert runs[0].visited == runs[1].visited
    assert runs[0].generated == runs[1].generated
    assert runs[0].plan_length == runs[1].plan_length
    seq1 = [a.name for a in step_sequence(runs[0].plan)]
    seq2 = [a.name for a in step_sequence(runs[1].plan)]
    assert seq1 == seq2


def test_gbfs_counts_monotone(gripper2, gripper2_tables):
    limits = SearchLimits(2000, 10.0)
    result = gbfs(gripper2, FeatureEvaluator("h_oc", gripper2_tables), "mc-loc",
                  limits, gripper2_tables)
    assert result.visited <= result.generated <= limits.max_generated


@pytest.mark.parametrize("max_generated, wall_time, field", [
    (-5, 900.0, "max_generated"), (0, 900.0, "max_generated"),
    (1000, -1.0, "wall_time"), (1000, 0.0, "wall_time"), (1000, math.nan, "wall_time"),
])
def test_search_limits_reject_limits_no_search_can_meet(max_generated, wall_time, field):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        SearchLimits(max_generated, wall_time)


@pytest.mark.parametrize("max_copies", [0, -1, -3])
def test_gbfs_rejects_max_copies_below_one(gripper2, gripper2_tables, max_copies):
    # ``new_step_actions`` cuts an adder only once the fact has a producer besides
    # a0, so a bound below 1 would still let the search run and solve
    with pytest.raises(ValueError, match=rf"^max_copies must be None or >= 1, got {max_copies}$"):
        gbfs(gripper2, FeatureEvaluator("h_add", gripper2_tables), "mw-loc",
             tables=gripper2_tables, max_copies=max_copies)


@pytest.mark.parametrize("feature", ["h_add", "h_oc", "h_gval"])
def test_copy_bound_can_exhaust_a_solvable_task(feature):
    # a documented limit: the lamp must be lit once per use, so a plan needs
    # three copies of ``light``, and under a bound of 2 ``exhausted`` does
    # not prove that no plan exists
    lit, goals = 0, {1, 2, 3}
    lamp = make_task(4, [(set(), {lit}, set())] + [({lit}, {g}, {lit}) for g in sorted(goals)],
                     set(), goals, name="lamp")
    tables = build_tables(lamp)
    outcomes = []
    for max_copies in (2, 3, None):
        result = gbfs(lamp, FeatureEvaluator(feature, tables), "mw-loc",
                      SearchLimits(100_000, 30.0), tables, max_copies=max_copies)
        outcomes.append((result.outcome, result.plan_length))
        if max_copies == 2:
            assert result.generated == 26
    assert outcomes == [("exhausted", None), ("solved", 6), ("solved", 6)]


def test_search_limits_accept_boundaries():
    limits = SearchLimits(1, math.inf)
    assert (limits.max_generated, limits.wall_time) == (1, math.inf)


def test_gbfs_reports_no_plan_that_fails_to_resimulate(gripper2, gripper2_tables,
                                                       monkeypatch):
    monkeypatch.setattr(search, "validate", lambda task, sequence: False)
    with pytest.raises(RuntimeError, match=gripper2.problem_name):
        gbfs(gripper2, FeatureEvaluator("h_add", gripper2_tables), "mw-loc",
             SearchLimits(50000, 30.0), gripper2_tables)


class OracleEvaluator:
    """True remaining-new-actions rank via the exhaustive plan-space oracle."""

    name = "h-star"

    def __init__(self, task):
        self.task = task

    def rank(self, plan):
        remaining = min_new_actions(self.task, plan, cap=8)
        return float(remaining) if remaining is not None else float("inf")

    def rank_new_steps(self, base, actions):
        return [self.rank(base.child(act)) for act in actions]


def test_perfect_evaluator_ideal_case():
    # every refinement adds an action: k independent goals, each achieved by
    # its own precondition-free action; gbfs visits optimal length + 1 nodes
    k = 3
    task = make_task(k, [(set(), {i}, set()) for i in range(k)], set(), set(range(k)))
    tables = build_tables(task)
    result = gbfs(task, OracleEvaluator(task), "mc-loc", SearchLimits(1000, 30.0), tables)
    assert result.solved
    assert result.plan_length == k == bfs_optimal_length(task)
    assert result.visited == k + 1


def test_solution_node_trace_path_consistent(gripper2, gripper2_tables):
    result = gbfs(gripper2, FeatureEvaluator("h_add", gripper2_tables), "mw-loc",
                  SearchLimits(50000, 30.0), gripper2_tables, record_trace=True)
    assert result.solved
    by_id = {row.node_id: row for row in result.trace}
    node = by_id[result.solution_node_id]
    assert node.h == 0.0     # additive features vanish on solutions
    depth_counts = node.action_count
    root = node
    while root.parent_id >= 0:
        root = by_id[root.parent_id]
    assert root.action_count == 0
    assert depth_counts == result.plan_length


_MODEL = LinearModel((1.0, 0.5, 0.25, 2.0, 0.125, 3.0), -0.75, tuple(range(6)))
_H_ADD = LinearModel((1.0,), 0.0, (FEATURE_NAMES.index("h_add"),))    # ranks as h_add
_REPLAY_EVALUATORS = {
    **{name: lambda tables, name=name: FeatureEvaluator(name, tables) for name in FEATURE_NAMES},
    "model": lambda tables: ModelEvaluator(_MODEL, tables),
    "enhanced": lambda tables: ModelEvaluator(_H_ADD, tables, ErrorTracker()),
}


@pytest.mark.parametrize("kind", sorted(_REPLAY_EVALUATORS))
def test_collect_generated_returns_built_plans_in_generation_order(kind, gripper2,
                                                                   gripper2_tables):
    # a recorded search, as the learning replay runs, searches as an
    # unrecorded one does and builds every generated plan in node-id order;
    # each trace row's raw rank is the rank of its built plan
    make = _REPLAY_EVALUATORS[kind]
    limits = SearchLimits(50000, 30.0)
    plain = gbfs(gripper2, make(gripper2_tables), "mw-loc", limits, gripper2_tables)
    evaluator = make(gripper2_tables)    # a fresh tracker for the enhanced form
    recorded = gbfs(gripper2, evaluator, "mw-loc", limits, gripper2_tables, record_trace=True)
    assert plain.solved and not plain.trace and not plain.generated_plans
    assert (recorded.outcome, recorded.plan, recorded.visited, recorded.generated) == \
        (plain.outcome, plain.plan, plain.visited, plain.generated)
    plans = [null_plan(gripper2)] + recorded.generated_plans
    assert [row.node_id for row in recorded.trace] == list(range(len(plans)))
    assert len(plans) == recorded.generated
    assert all(type(plan) is PartialPlan for plan in plans)
    if getattr(evaluator, "tracker", None) is not None:
        assert evaluator.tracker.observations > 0
    for row in recorded.trace:
        plan = plans[row.node_id]
        assert evaluator.rank(plan) == row.h and plan.action_count == row.action_count
        if row.parent_id >= 0:
            assert plan.steps[:len(plans[row.parent_id].steps)] == plans[row.parent_id].steps


def test_visited_plans_are_freed(monkeypatch):
    # A queued entry keeps at most one plan alive: its own, or its parent's
    # when it is a new-step child queued unbuilt. So beyond the queued
    # entries (generated - visited) only the plan being expanded and the root
    # may live. Every generated node but the root is pushed once.
    task = load_fixture_task("gripper.pddl", "gripper-3.pddl")
    tables = build_tables(task)
    seen = {"pushed": 0, "visits": 0}

    def counting_push(heap, entry):
        seen["pushed"] += 1
        heapq.heappush(heap, entry)

    monkeypatch.setattr(search, "heapq",
                        SimpleNamespace(heappush=counting_push, heappop=heapq.heappop))
    before = live_plans()

    def probe(plan, strategy, tables_):
        seen["visits"] += 1
        if seen["visits"] == 1000:
            seen["open"] = seen["pushed"] + 1 - seen["visits"]
            seen["live"] = live_plans() - before
        return select_flaw(plan, strategy, tables_)

    with patch.object(search, "select_flaw", probe):
        result = gbfs(task, FeatureEvaluator("h_add", tables), "mw-loc",
                      SearchLimits(100_000, 60.0), tables)
    assert result.solved and result.visited > 1000
    assert seen["open"] > 100
    assert seen["live"] <= seen["open"] + 2


def test_queued_children_hold_no_resolver():
    # a pending new-step child is queued as its base and its action and
    # built from them when popped, so mid-search no resolver is alive beyond
    # those alive before the search
    task = load_fixture_task("gripper.pddl", "gripper-3.pddl")
    tables = build_tables(task)
    seen = {"visits": 0}

    def live_resolvers() -> int:
        return sum(1 for obj in gc.get_objects() if type(obj) is Resolver)

    before = live_resolvers()

    def probe(plan, strategy, tables_):
        seen["visits"] += 1
        if seen["visits"] == 1000:
            seen["live"] = live_resolvers() - before
        return select_flaw(plan, strategy, tables_)

    with patch.object(search, "select_flaw", probe):
        result = gbfs(task, FeatureEvaluator("h_add", tables), "mw-loc",
                      SearchLimits(100_000, 60.0), tables)
    assert result.solved and result.visited > 1000
    assert seen["live"] == 0


def test_only_a_base_with_a_built_child_builds_its_shared_part(monkeypatch):
    # a flaw none of whose new-step children is popped never builds the
    # closure, links, open conditions and threats its children would share
    made, built_from, completed = [], [], []
    real_init, real_child, real_shared = (NewStepBase.__init__, NewStepBase.child,
                                          NewStepBase._shared_part)

    def making(self, plan, q, c):
        real_init(self, plan, q, c)
        made.append(self)

    def building(self, act):
        built_from.append(self)
        return real_child(self, act)

    def completing(self):
        completed.append(self)
        return real_shared(self)

    monkeypatch.setattr(NewStepBase, "__init__", making)
    monkeypatch.setattr(NewStepBase, "child", building)
    monkeypatch.setattr(NewStepBase, "_shared_part", completing)
    task = load_fixture_task("gripper.pddl", "gripper-3.pddl")
    tables = build_tables(task)
    gbfs(task, FeatureEvaluator("h_add", tables), limits=SearchLimits(2000), tables=tables)
    assert len({id(b) for b in completed}) == len(completed)     # once each
    assert {id(b) for b in completed} == {id(b) for b in built_from}
    assert 0 < len(completed) < len(made)
