"""Plan-space semantics: flaws, resolvers, apply, linearization, makespan."""

from __future__ import annotations

import copy
from random import Random

import pytest

from poclkit.grounding import ground
from poclkit.pddl import load_domain, load_problem
from poclkit.plans import (GOAL_STEP, INIT_STEP, CausalLink, NewStepBase, OpenCondition,
                           Resolver, Threat, apply_resolver, earliest_slots, format_plan,
                           is_solution, linearize, makespan, new_step_actions, null_plan,
                           resolvers, step_sequence, validate)
from poclkit.heuristics import FEATURE_NAMES, build_tables, new_step_values
from poclkit.search import FeatureEvaluator, SearchLimits, gbfs

from conftest import fixture_path, make_task
from oracles import collect_flaws, new_step_children, random_linearization, refinements


def solve(task, feature="h_add", strategy="mw-loc", max_nodes=50000):
    tables = build_tables(task)
    result = gbfs(task, FeatureEvaluator(feature, tables), strategy,
                  SearchLimits(max_nodes, 30.0), tables)
    assert result.solved, f"fixture task should solve, got {result.outcome}"
    return result.plan


# ── null_plan ────────────────────────────────────────────────────────────────

def test_null_plan_goal_open_conditions():
    task = make_task(4, [({0}, {1}, set())], {0}, {1, 2, 3})
    plan = null_plan(task)
    assert len(plan.open_conds) == 3
    assert all(c == GOAL_STEP for _, c in plan.open_conds)
    assert plan.action_count == 0


def test_null_plan_empty_goal_is_solution():
    task = make_task(2, [({0}, {1}, set())], {0}, set())
    plan = null_plan(task)
    assert is_solution(plan)
    assert collect_flaws(plan) == []


def test_null_plan_gripper2(gripper2):
    plan = null_plan(gripper2)
    assert len(plan.open_conds) == 2


# ── collect_flaws / resolvers ────────────────────────────────────────────────

def test_collect_flaws_null_plan_only_goal_conditions():
    task = make_task(3, [], {0}, {1, 2})
    flaws = collect_flaws(null_plan(task))
    assert all(isinstance(f, OpenCondition) for f in flaws)
    assert [f.fact for f in flaws] == [1, 2]


def test_threat_detection():
    # link (a0, p, s) with unordered step t deleting p
    # task: goal {x, y}; As: pre {p} -> x; At: -> y, del p; init {p}
    task = make_task(4, [({0}, {1}, set()), (set(), {2}, {0})], {0}, {1, 2})
    plan = null_plan(task)
    # support x=1 with new step As
    (plan,) = new_step_children(plan, OpenCondition(1, GOAL_STEP), task)
    # support As's precondition p from a0
    (r,) = [r for r in resolvers(plan, OpenCondition(0, plan.newest_step))
            if r.kind == "reuse" and r.producer == INIT_STEP]
    plan = apply_resolver(plan, r)
    assert not plan.threats
    # introduce t: adds y=2, deletes p
    (plan,) = new_step_children(plan, OpenCondition(2, GOAL_STEP), task)
    assert len(plan.threats) == 1
    threat = plan.threats[0]
    assert threat.link.producer == INIT_STEP and threat.link.fact == 0
    flaws = collect_flaws(plan)
    assert isinstance(flaws[0], Threat)


def test_reuse_only_resolver_from_init():
    task = make_task(2, [], {0}, {0})
    plan = null_plan(task)
    res = resolvers(plan, OpenCondition(0, GOAL_STEP))
    assert len(res) == 1 and not new_step_actions(plan, 0, task)
    assert res[0].kind == "reuse" and res[0].producer == INIT_STEP


def _real_producer_threat_plan():
    """Plan whose single threat has a real (non-dummy) producer step.

    Actions: a0 adds p; a1: p -> x; a2 adds y and deletes p. Resolving x via
    a1, p via a new a0 step, then y via a2 leaves a2 threatening the link.
    """
    task = make_task(4, [(set(), {0}, set()), ({0}, {1}, set()), (set(), {2}, {0})],
                     set(), {1, 2})
    plan = null_plan(task)
    for fact in (1, 0, 2):
        flaw = next(f for f in collect_flaws(plan)
                    if isinstance(f, OpenCondition) and f.fact == fact)
        (plan,) = new_step_children(plan, flaw, task)
    assert len(plan.threats) == 1
    return task, plan


def test_threat_with_both_orderings_consistent():
    task, plan = _real_producer_threat_plan()
    threat = plan.threats[0]
    res = resolvers(plan, threat)
    assert sorted(r.kind for r in res) == ["demotion", "promotion"]
    children = [apply_resolver(plan, r) for r in res]
    assert all(c is not None for c in children)
    assert children[0].after != children[1].after


def test_gripper_new_step_resolvers_for_goal(gripper2):
    plan = null_plan(gripper2)
    fact = gripper2.fact_ids["(at ball1 roomb)"]
    new_steps = new_step_actions(plan, fact, gripper2)
    assert len(new_steps) == 2     # drop ball1 roomb left / right
    assert all(act.name.startswith("drop ball1") for act in new_steps)
    assert not resolvers(plan, OpenCondition(fact, GOAL_STEP))    # no reuse


def test_loop_avoidance_caps_copies(gripper2):
    plan = null_plan(gripper2)
    fact = gripper2.fact_ids["(at ball1 roomb)"]
    flaw = OpenCondition(fact, GOAL_STEP)
    act = new_step_actions(plan, fact, gripper2)[0]
    p1 = NewStepBase(plan, *flaw).child(act)
    # the same drop can appear once more, then the filter rejects a third copy
    again = [x for x in new_step_actions(p1, fact, gripper2) if x.id == act.id]
    assert again  # one copy present, second allowed
    p2 = NewStepBase(p1, *flaw).child(again[0])
    third = [x for x in new_step_actions(p2, fact, gripper2) if x.id == act.id]
    assert not third
    unbounded = [x for x in new_step_actions(p2, fact, gripper2, max_copies=None)
                 if x.id == act.id]
    assert unbounded


# ── apply ────────────────────────────────────────────────────────────────────

def test_apply_reuse_shrinks_open_conditions():
    task = make_task(2, [], {0}, {0})
    plan = null_plan(task)
    child = apply_resolver(plan, resolvers(plan, OpenCondition(0, GOAL_STEP))[0])
    assert len(child.open_conds) == 0
    assert child.action_count == plan.action_count


def test_apply_new_step_arithmetic(chain_task):
    plan = null_plan(chain_task)
    # goal fact 2 achieved by action B with 1 precondition: OCs 1 -> 1, count +1
    (act,) = new_step_actions(plan, 2, chain_task)
    child = NewStepBase(plan, 2, GOAL_STEP).child(act)
    assert child.action_count == 1
    assert len(child.open_conds) == len(plan.open_conds) - 1 + len(act.pre)
    assert child.newest_step not in (INIT_STEP, GOAL_STEP)


def test_apply_never_mutates_parent(chain_task):
    plan = null_plan(chain_task)
    for _ in range(3):
        snapshot = copy.deepcopy(plan)
        flaw = collect_flaws(plan)[0]
        child = refinements(plan, flaw, chain_task)[0]
        assert plan == snapshot
        if child is None or is_solution(child):
            break
        plan = child


def test_apply_cycle_returns_none():
    _, plan = _real_producer_threat_plan()
    threat = plan.threats[0]
    promoted = apply_resolver(plan, Resolver("promotion",
                                             ordering=(threat.step, threat.link.producer)))
    assert promoted is not None
    # the reverse ordering now closes a cycle: must signal inconsistency
    clash = apply_resolver(promoted, Resolver("demotion",
                                              ordering=(threat.link.producer, threat.step)))
    assert clash is None


def test_ordering_child_shares_unchanged_tuples():
    task, plan = _real_producer_threat_plan()
    options = resolvers(plan, plan.threats[0])
    assert sorted(r.kind for r in options) == ["demotion", "promotion"]
    for r in options:
        child = apply_resolver(plan, r)
        assert child.steps is plan.steps
        assert child.links is plan.links
        assert child.open_conds is plan.open_conds
        assert child.after is not plan.after


def test_new_step_siblings_share_their_base(gripper2):
    plan = null_plan(gripper2)
    flaw = OpenCondition(gripper2.fact_ids["(at ball1 roomb)"], GOAL_STEP)
    base = NewStepBase(plan, flaw.fact, flaw.consumer)
    first, second = [base.child(act) for act in new_step_actions(plan, flaw.fact, gripper2)]
    assert first == new_step_children(plan, flaw, gripper2)[0]
    assert first.after is second.after
    assert first.links is second.links
    assert first.steps[-1] is not second.steps[-1]
    assert first.producers is not second.producers


def _counting_completions(monkeypatch) -> list:
    """Patch ``NewStepBase._shared_part`` to record each base that builds
    its shared part."""
    completed, real = [], NewStepBase._shared_part

    def completing(self):
        completed.append(self)
        return real(self)

    monkeypatch.setattr(NewStepBase, "_shared_part", completing)
    return completed


def test_new_step_base_builds_its_shared_part_once_for_the_first_child(gripper2, monkeypatch):
    completed = _counting_completions(monkeypatch)
    tables = build_tables(gripper2)
    plan = null_plan(gripper2)
    flaw = OpenCondition(gripper2.fact_ids["(at ball1 roomb)"], GOAL_STEP)
    options = new_step_actions(plan, flaw.fact, gripper2)
    base = NewStepBase(plan, flaw.fact, flaw.consumer)
    for name in FEATURE_NAMES:    # ranking the children reads no shared field
        new_step_values(name, base, tables, options)
    assert completed == [] and base.shared is None
    first, second = [base.child(act) for act in options]
    assert completed == [base]
    after, links, open_conds, on_link, threats = base.shared
    assert first.after is second.after is after
    assert first.links is second.links is links
    shared = len(open_conds)
    assert shared == len(plan.open_conds) - 1
    for child in (first, second):
        assert all(a is b for a, b in zip(child.open_conds[:shared], open_conds))
    assert threats == plan.threats + on_link


def test_new_step_on_another_plan_after_a_sibling_batch(gripper2):
    # two plans with the same open condition: the base of one plan's
    # new-step children must not leak into the other's
    plan = null_plan(gripper2)
    ball1, ball2 = (OpenCondition(gripper2.fact_ids[f"(at {b} roomb)"], GOAL_STEP)
                    for b in ("ball1", "ball2"))
    other = new_step_children(plan, ball2, gripper2)[0]
    assert ball1 in other.open_conds and len(other.steps) == len(plan.steps) + 1
    batch = new_step_children(plan, ball1, gripper2)
    act = new_step_actions(plan, ball1.fact, gripper2)[0]
    child = NewStepBase(other, *ball1).child(act)
    sid = len(other.steps)
    assert child.steps == other.steps + (act,)
    assert child.links == other.links + (CausalLink(sid, ball1.fact, GOAL_STEP),)
    assert len(child.after) == sid + 1 and child.after is not batch[0].after
    assert child.ordered(INIT_STEP, sid) and child.ordered(sid, GOAL_STEP)
    assert child.open_conds == tuple(oc for oc in other.open_conds if oc != ball1) \
        + tuple(OpenCondition(f, sid) for f in act.pre)
    assert child == NewStepBase(copy.copy(other), *ball1).child(act)


def test_entailed_edge_shares_parent_closure():
    # a0 precedes every step, so supporting the goal from a0 adds no ordering
    task = make_task(2, [], {0}, {0})
    plan = null_plan(task)
    (r,) = resolvers(plan, OpenCondition(0, GOAL_STEP))
    assert not new_step_actions(plan, 0, task)
    child = apply_resolver(plan, r)
    assert child.after is plan.after
    assert len(child.links) == 1


def test_resolver_for_closed_condition_keeps_open_conditions():
    task = make_task(2, [], {0, 1}, {0, 1})
    plan = null_plan(task)
    (r,) = resolvers(plan, OpenCondition(0, GOAL_STEP))
    assert not new_step_actions(plan, 0, task)
    child = apply_resolver(plan, r)
    assert child.open_conds == (OpenCondition(1, GOAL_STEP),)
    # (0, a_inf) is no longer open: applying its resolver again removes nothing
    again = apply_resolver(child, r)
    assert again.open_conds == child.open_conds


# ── linearize / makespan / validate ──────────────────────────────────────────

def _two_chain_task(extra_dep_on_a3=False):
    """Four actions: a2 depends on a1, a4 on a3 (via intermediate facts)."""
    # facts: 0 init, 1 = e1, 2 = g2, 3 = e3, 4 = g4, 5 = g5
    actions = [
        (set(), {1}, set()),       # A1 -> e1
        ({1}, {2}, set()),         # A2: e1 -> g2
        (set(), {3}, set()),       # A3 -> e3
        ({3}, {4}, set()),         # A4: e3 -> g4
    ]
    goal = {2, 4}
    if extra_dep_on_a3:
        actions.append(({3}, {5}, set()))   # A5: e3 -> g5
        goal = {2, 4, 5}
    return make_task(6, actions, {0}, goal)


def test_makespan_two_parallel_chains():
    plan = solve(_two_chain_task())
    assert plan.action_count == 4
    assert makespan(plan) == 2


def test_earliest_slot_of_dependent_action():
    plan = solve(_two_chain_task(extra_dep_on_a3=True))
    slots = earliest_slots(plan)
    a5 = next(sid for sid, act in enumerate(plan.steps) if act.name == "a4")
    assert slots[a5] == 1


def test_makespan_total_chain(chain_task):
    # chain of 4 totally ordered actions
    task = make_task(5, [({0}, {1}, set()), ({1}, {2}, set()),
                         ({2}, {3}, set()), ({3}, {4}, set())], {0}, {4})
    plan = solve(task)
    assert plan.action_count == 4
    assert makespan(plan) == 4
    order = linearize(plan)
    assert order[0] == INIT_STEP and order[-1] == GOAL_STEP
    assert [plan.steps[s].name for s in order[1:-1]] == ["a0", "a1", "a2", "a3"]


def _is_total_chain(plan):
    real = [s for s in range(len(plan.steps)) if s not in (INIT_STEP, GOAL_STEP)]
    return all(plan.ordered(a, b) or plan.ordered(b, a)
               for i, a in enumerate(real) for b in real[i + 1:])


def test_makespan_equals_count_iff_total_chain():
    chain = make_task(5, [({0}, {1}, set()), ({1}, {2}, set()),
                          ({2}, {3}, set()), ({3}, {4}, set())], {0}, {4})
    for task in (_two_chain_task(), _two_chain_task(True), chain):
        plan = solve(task)
        assert makespan(plan) <= plan.action_count
        assert (makespan(plan) == plan.action_count) == _is_total_chain(plan)


def test_linearize_empty_plan():
    task = make_task(1, [], {0}, set())
    assert linearize(null_plan(task)) == [INIT_STEP, GOAL_STEP]
    assert makespan(null_plan(task)) == 0


def test_linearizations_respect_constraints():
    plan = solve(_two_chain_task())
    names = {sid: act.name for sid, act in enumerate(plan.steps)}
    rng = Random(42)
    for _ in range(20):
        order = random_linearization(plan, rng)
        seq = [names[s] for s in order if s not in (INIT_STEP, GOAL_STEP)]
        assert seq.index("a0") < seq.index("a1")
        assert seq.index("a2") < seq.index("a3")


def test_validate_empty_sequence_empty_goal():
    task = make_task(1, [], {0}, set())
    assert validate(task, [])


def test_validate_rejects_missing_precondition(chain_task):
    b = chain_task.actions[1]   # needs fact 1, not in init
    assert not validate(chain_task, [b])


def test_solution_plans_validate_all_linearizations(gripper2):
    plan = solve(gripper2)
    assert is_solution(plan)
    rng = Random(7)
    for _ in range(10):
        order = random_linearization(plan, rng)
        assert validate(gripper2, step_sequence(plan, order))


def test_causal_link_invariants_along_refinements(gripper2):
    plan = null_plan(gripper2)
    tables = build_tables(gripper2)
    for _ in range(8):
        if is_solution(plan):
            break
        flaw = collect_flaws(plan)[0]
        child = refinements(plan, flaw, gripper2)[0]
        if child is None:
            break
        plan = child
        for link in plan.links:
            assert plan.ordered(link.producer, link.consumer)
            assert link.fact in plan.steps[link.producer].add
            assert link.fact in plan.steps[link.consumer].pre
        # each precondition is either open or supported by exactly one link
        for sid, act in enumerate(plan.steps):
            if sid == INIT_STEP:
                continue
            for fact in act.pre:
                n_links = sum(1 for l in plan.links
                              if l.consumer == sid and l.fact == fact)
                is_open = OpenCondition(fact, sid) in plan.open_conds
                assert n_links + int(is_open) == 1


def test_closure_acyclic_along_random_refinements(gripper2):
    rng = Random(3)
    for _ in range(25):
        plan = null_plan(gripper2)
        for _ in range(rng.randrange(2, 12)):
            if is_solution(plan):
                break
            flaws = collect_flaws(plan)
            flaw = flaws[rng.randrange(len(flaws))]
            options = refinements(plan, flaw, gripper2)
            if not options:
                break
            child = options[rng.randrange(len(options))]
            if child is None:
                continue
            plan = child
            for sid, mask in enumerate(plan.after):
                assert not (mask >> sid) & 1          # no self-loop in the closure
                for other in range(len(plan.steps)):
                    if (mask >> other) & 1:
                        assert not plan.ordered(other, sid)   # antisymmetric
            assert len(linearize(plan)) == len(plan.steps)    # total topological cover


def test_format_plan(gripper2):
    plan = solve(gripper2)
    text = format_plan(plan)
    lines = text.strip().splitlines()
    assert lines[-1] == f";; makespan={makespan(plan)}"
    assert all(":" in line for line in lines[:-1])
    assert len(lines) - 1 == plan.action_count


def test_solution_plan_end_to_end_gripper(gripper2):
    plan = solve(gripper2)
    assert validate(gripper2, step_sequence(plan))
