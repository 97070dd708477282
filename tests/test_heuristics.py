"""Cost tables against an independent value-iteration oracle, plus the six
feature evaluations on known plans."""

from __future__ import annotations

import math
from random import Random

import pytest

from poclkit.grounding import GroundTask
from poclkit.heuristics import (FEATURE_NAMES, FeatureVector, additive_costs, build_tables,
                                eval_add, feature_value, feature_vector)
from poclkit.plans import GOAL_STEP, OpenCondition, is_solution, null_plan
from poclkit.search import FeatureEvaluator, SearchLimits, gbfs

from conftest import make_task, random_task
from oracles import (bellman_costs, bfs_optimal_length, collect_flaws, new_step_children,
                     refinements, relaxed_goal_depth)

INF = math.inf


# ── additive_costs ───────────────────────────────────────────────────────────

def test_chain_plain_costs(chain_task):
    table = additive_costs(chain_task, "plain")
    assert table.fact_cost == (0.0, 1.0, 2.0)


def test_chain_effort_costs(chain_task):
    table = additive_costs(chain_task, "effort")
    assert table.fact_cost == (0.0, 2.0, 4.0)


def test_init_facts_cost_zero(chain_task):
    for variant in ("plain", "effort"):
        table = additive_costs(chain_task, variant)
        for f in chain_task.init:
            assert table.fact_cost[f] == 0.0


def test_unreachable_fact_infinite():
    task = make_task(3, [({0}, {1}, set())], {0}, {2})
    table = additive_costs(task, "plain")
    assert table.fact_cost[2] == INF


def test_additive_costs_match_bellman_oracle():
    rng = Random(20240901)
    for _ in range(50):
        task = random_task(rng)
        for variant in ("plain", "effort"):
            got = additive_costs(task, variant).fact_cost
            want = bellman_costs(task, variant)
            assert list(got) == want


def test_fixpoint_stable_under_extra_sweep():
    rng = Random(5)
    for _ in range(10):
        task = random_task(rng)
        table = additive_costs(task, "plain")
        cost = list(table.fact_cost)
        for act in task.actions:
            total = 1.0 + sum(cost[p] for p in act.pre)
            for f in act.add:
                assert cost[f] <= total


def test_monotone_in_initial_state():
    rng = Random(99)
    for _ in range(25):
        task = random_task(rng)
        extra = rng.randrange(len(task.facts))
        bigger = GroundTask(task.domain_name, task.problem_name, task.facts, task.actions,
                            task.init | {extra}, task.goal, task.fact_ids)
        for variant in ("plain", "effort"):
            before = additive_costs(task, variant).fact_cost
            after = additive_costs(bigger, variant).fact_cost
            assert all(a <= b for a, b in zip(after, before))


def test_disjoint_chains_sum():
    # two chains: 0->1->2 (len 2 to fact 2) and 3->4 (len 1 to fact 4)
    task = make_task(5, [({0}, {1}, set()), ({1}, {2}, set()), ({3}, {4}, set())],
                     {0, 3}, {2, 4})
    plan = null_plan(task)
    table = additive_costs(task, "plain")
    expected = sum(relaxed_goal_depth(task, g) for g in task.goal)
    assert eval_add(plan, table) == expected == 3.0


def test_unknown_variant_rejected(chain_task):
    with pytest.raises(ValueError):
        additive_costs(chain_task, "squared")


# ── feature evaluations ──────────────────────────────────────────────────────

def test_eval_g_counts_real_steps(chain_task):
    tables = build_tables(chain_task)
    plan = null_plan(chain_task)
    assert feature_vector(plan, tables).h_gval == 0.0
    (child,) = new_step_children(plan, OpenCondition(2, GOAL_STEP), chain_task)
    assert feature_vector(child, tables).h_gval == 1.0


def test_eval_g_solution_matches_plan_length(gripper2, gripper2_tables):
    result = gbfs(gripper2, FeatureEvaluator("h_add", gripper2_tables), "mw-loc",
                  SearchLimits(50000, 30.0), gripper2_tables)
    assert result.solved
    assert feature_vector(result.plan, gripper2_tables).h_gval == result.plan_length


def test_eval_oc(chain_task):
    tables = build_tables(chain_task)
    plan = null_plan(chain_task)
    assert feature_vector(plan, tables).h_oc == 1.0
    (child,) = new_step_children(plan, OpenCondition(2, GOAL_STEP), chain_task)
    # -1 goal condition, +1 new
    assert feature_vector(child, tables).h_oc == 1.0


def test_eval_oc_new_step_with_three_preconditions():
    task = make_task(5, [({1, 2, 3}, {0}, set())], {1, 2, 3}, {0})
    plan = null_plan(task)
    (child,) = new_step_children(plan, OpenCondition(0, GOAL_STEP), task)
    assert feature_vector(child, build_tables(task)).h_oc == 3.0


def test_eval_add_chain_values(chain_task):
    plan = null_plan(chain_task)
    tables = build_tables(chain_task)
    assert eval_add(plan, tables.plain) == 2.0
    assert eval_add(plan, tables.effort) == 4.0


def test_eval_add_solution_zero(gripper2, gripper2_tables):
    result = gbfs(gripper2, FeatureEvaluator("h_add", gripper2_tables), "mw-loc",
                  SearchLimits(50000, 30.0), gripper2_tables)
    plan = result.plan
    assert is_solution(plan)
    for reuse in (False, True):
        assert eval_add(plan, gripper2_tables.plain, reuse) == 0.0
        assert eval_add(plan, gripper2_tables.effort, reuse) == 0.0


def test_reuse_discounts_supplied_condition(chain_task):
    # after adding step B (adds goal fact 2), the condition (2, goal) would be
    # free under reuse if it were still open; instead check its precondition:
    # fact 1 is only achievable by new step A, so no discount applies yet.
    plan = null_plan(chain_task)
    tables = build_tables(chain_task)
    (p1,) = new_step_children(plan, OpenCondition(2, GOAL_STEP), chain_task)
    assert eval_add(p1, tables.plain, reuse=False) == 1.0
    assert eval_add(p1, tables.plain, reuse=True) == 1.0
    # now add step A; its precondition fact 0 is suppliable by a0, and fact 1
    # (if it were open on another consumer) would be suppliable by A
    (p2,) = new_step_children(p1, OpenCondition(1, p1.newest_step), chain_task)
    assert eval_add(p2, tables.plain, reuse=False) == 0.0  # fact 0 costs 0
    assert eval_add(p2, tables.plain, reuse=True) == 0.0


def test_reuse_zero_for_existing_adder():
    # goal fact 1 open, and an unordered existing step adds it
    task = make_task(3, [(set(), {1}, set()), (set(), {2}, set())], {0}, {1, 2})
    plan = null_plan(task)
    tables = build_tables(task)
    (plan,) = [c for c in new_step_children(plan, OpenCondition(2, GOAL_STEP), task)
               if 2 in c.steps[c.newest_step].add]
    # open condition (1, goal): new step a1 is not its supplier yet fact 1 has
    # no existing adder, so no discount; re-check with the adder present
    (with_adder,) = new_step_children(plan, OpenCondition(1, GOAL_STEP), task)
    assert eval_add(plan, tables.plain, reuse=True) == 1.0
    # after adding the adder, the remaining OCs are only its own preconditions
    assert eval_add(with_adder, tables.plain, reuse=True) == 0.0


def test_feature_vector_empty_goal():
    task = make_task(2, [], {0}, set())
    tables = build_tables(task)
    assert feature_vector(null_plan(task), tables) == (0, 0, 0, 0, 0, 0)


def test_feature_vector_chain(chain_task):
    tables = build_tables(chain_task)
    assert feature_vector(null_plan(chain_task), tables) == (0.0, 1.0, 2.0, 4.0, 2.0, 4.0)


def test_feature_vector_order_fixed(gripper2, gripper2_tables):
    plan = null_plan(gripper2)
    vec = feature_vector(plan, gripper2_tables)
    assert FEATURE_NAMES == ("h_gval", "h_oc", "h_add", "h_add_w", "h_add_r", "h_add_w_r")
    assert FEATURE_NAMES == FeatureVector._fields
    for i, name in enumerate(FEATURE_NAMES):
        assert vec[i] == feature_value(name, plan, gripper2_tables)


def test_reuse_never_exceeds_plain_sum(gripper2, gripper2_tables):
    # h_add_r <= h_add and h_add_w_r <= h_add_w along a search prefix
    plan = null_plan(gripper2)
    frontier = [plan]
    seen = 0
    while frontier and seen < 200:
        p = frontier.pop()
        seen += 1
        vec = feature_vector(p, gripper2_tables)
        assert vec.h_add_r <= vec.h_add
        assert vec.h_add_w_r <= vec.h_add_w
        if is_solution(p):
            continue
        flaw = collect_flaws(p)[0]
        for child in refinements(p, flaw, gripper2)[:3]:
            if child is not None:
                frontier.append(child)


def test_infinite_feature_propagates():
    task = make_task(3, [({0}, {1}, set())], {0}, {2})   # fact 2 unreachable
    tables = build_tables(task)
    vec = feature_vector(null_plan(task), tables)
    assert vec.h_add == INF and vec.h_add_w == INF
    assert vec.h_gval == 0.0 and vec.h_oc == 1.0


def test_gripper_null_plan_h_add_value(gripper2, gripper2_tables):
    # each goal ball pays pick(1) + move(1) + drop(1) = 3 under the additive
    # recursion; sharing the move is ignored, so the sum exceeds the optimum
    h = eval_add(null_plan(gripper2), gripper2_tables.plain)
    assert h == 6.0
    assert bfs_optimal_length(gripper2) == 5
