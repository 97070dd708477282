"""Property tests for the bitmask plan core.

Random refinements of small random tasks are checked against brute-force
scans over ``plan.steps`` and ``plan.links`` and against an ordering edge set
the test keeps itself, so the closure and the fact -> step mask are never
trusted to check themselves.
"""

from __future__ import annotations

import copy
from dataclasses import fields
from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poclkit.heuristics import (FEATURE_NAMES, build_tables, eval_add, feature_value,
                                feature_vector, new_step_values)
from poclkit.learning import LinearModel
from poclkit.plans import (GOAL_STEP, INIT_STEP, OpenCondition, PartialPlan, Resolver,
                           apply_resolver, is_solution, linearize, new_step_base, null_plan,
                           random_linearization, resolvers, step_sequence, validate)
from poclkit.search import FeatureEvaluator, ModelEvaluator, built, expand

from conftest import random_task
from oracles import collect_flaws


def _reach(steps, edges) -> dict[int, set[int]]:
    """Steps strictly after each step, by depth-first search over ``edges``."""
    succ = {sid: [b for a, b in edges if a == sid] for sid in steps}
    out = {}
    for sid in steps:
        seen, stack = set(), list(succ[sid])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(succ[n])
        out[sid] = seen
    return out


def _reusers(plan, reach, fact, consumer) -> list[int]:
    return [sid for sid in range(len(plan.steps))
            if sid != consumer and fact in plan.steps[sid].add and sid not in reach[consumer]]


def _threats(plan, reach) -> set:
    return {(t, link) for link in plan.links for t, act in enumerate(plan.steps)
            if t not in (link.producer, link.consumer) and link.fact in act.delete
            and link.producer not in reach[t] and t not in reach[link.consumer]}


def _snapshot(plan):
    return (dict(enumerate(plan.steps)), dict(enumerate(plan.after)),
            dict(plan.producers), plan.links, plan.open_conds, plan.threats, plan.newest_step)


def _check_plan(task, tables, plan, edges):
    reach = _reach(range(len(plan.steps)), edges)
    assert dict(enumerate(plan.after)) == {sid: sum(1 << n for n in after)
                                           for sid, after in reach.items()}
    facts = range(len(task.facts))
    assert {f: m for f in facts
            if (m := sum(1 << s for s, a in enumerate(plan.steps) if f in a.add))} \
        == {f: m for f, m in plan.producers.items() if m}

    assert set(plan.threats) == _threats(plan, reach)
    assert len(set(plan.threats)) == len(plan.threats)

    expected_add_r = 0.0
    for fact, consumer in plan.open_conds:
        reuse = [r.producer for r in resolvers(plan, OpenCondition(fact, consumer), task)
                 if r.kind == "reuse"]
        assert reuse == _reusers(plan, reach, fact, consumer)
        if not reuse:
            expected_add_r += tables.plain.fact_cost[fact]
    assert eval_add(plan, tables.plain, reuse=True) == expected_add_r
    # the single-feature kernel and the full vector agree on every feature
    vector = feature_vector(plan, tables)
    for i, name in enumerate(FEATURE_NAMES):
        assert feature_value(name, plan, tables) == vector[i]

    order, done = linearize(plan), set()
    assert sorted(order) == list(range(len(plan.steps)))
    for sid in order:
        ready = [s for s in range(len(plan.steps)) if s not in done
                 and all(b != s or a in done for a, b in edges)]
        assert sid == min(ready)
        done.add(sid)


def _new_edges(child, resolver) -> list[tuple[int, int]]:
    if resolver.kind in ("promotion", "demotion"):
        return [resolver.ordering]
    if resolver.kind == "reuse":
        return [(resolver.producer, resolver.consumer)]
    sid = child.newest_step
    return [(INIT_STEP, sid), (sid, GOAL_STEP), (sid, resolver.consumer)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 12), depth=st.integers(0, 30))
def test_random_refinements_match_brute_force(seed, max_facts, depth):
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts)
    tables = build_tables(task)
    plan, edges = null_plan(task), {(INIT_STEP, GOAL_STEP)}
    path = [(plan, _snapshot(plan))]
    for _ in range(depth):
        _check_plan(task, tables, plan, edges)
        flaws = collect_flaws(plan)
        if not flaws:
            break
        options = resolvers(plan, rng.choice(flaws), task)
        if not options:
            break
        children = [apply_resolver(plan, r) for r in options]
        assert _snapshot(plan) == path[-1][1]
        i = rng.randrange(len(options))
        if children[i] is None:
            break
        edges = edges | set(_new_edges(children[i], options[i]))
        plan = children[i]
        path.append((plan, _snapshot(plan)))
    _check_plan(task, tables, plan, edges)
    # refining a descendant never reaches back into an ancestor's containers
    assert all(_snapshot(p) == snap for p, snap in path)
    if is_solution(plan):
        for _ in range(3):
            assert validate(task, step_sequence(plan, random_linearization(plan, rng)))


def _fields(plan) -> tuple:
    return tuple(getattr(plan, f.name) for f in fields(PartialPlan))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 10), depth=st.integers(0, 20))
def test_expand_children_match_cold_applications(seed, max_facts, depth):
    # ``expand`` queues one flaw's new-step children pending on one shared
    # base, built later by ``built``; each cold application is on a fresh
    # copy of the plan and builds its own base
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts)
    tables = build_tables(task)
    plan = null_plan(task)
    for _ in range(depth):
        flaws = collect_flaws(plan)
        if not flaws:
            break
        # several flaws of one plan in a row, then their cold counterparts
        chosen = rng.sample(flaws, min(3, len(flaws)))
        batches = [[built(c) for c in expand(plan, task, lambda p, t, flaw=flaw: flaw, tables)]
                   for flaw in chosen]
        for flaw, batch in zip(chosen, batches):
            cold = [c for r in resolvers(plan, flaw, task)
                    if (c := apply_resolver(copy.copy(plan), r)) is not None]
            assert [_fields(c) for c in batch] == [_fields(c) for c in cold]
        children = [c for batch in batches for c in batch]
        if not children:
            break
        plan = rng.choice(children)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 12), depth=st.integers(0, 20),
       mask=st.lists(st.integers(0, len(FEATURE_NAMES) - 1), unique=True),
       weights=st.lists(st.floats(-4.0, 4.0), min_size=len(FEATURE_NAMES) + 1,
                        max_size=len(FEATURE_NAMES) + 1))
def test_pending_new_step_children_rank_and_build_like_built_ones(seed, max_facts, depth,
                                                                   mask, weights):
    # random tasks give +inf facts and actions adding other conditions' facts;
    # a model of any mask, the empty one included, in any order, ranks from
    # its masked features alone exactly as it predicts from the full vector
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts)
    tables = build_tables(task)
    model = LinearModel(tuple(weights[:len(mask)]), weights[-1], tuple(mask))
    model_ev = ModelEvaluator(model, tables)
    evaluators = [FeatureEvaluator(name, tables) for name in FEATURE_NAMES]
    plan = null_plan(task)
    assert model_ev.rank(plan) == model.predict(feature_vector(plan, tables))
    for _ in range(depth):
        for oc in plan.open_conds:
            options = [r for r in resolvers(plan, oc, task) if r.kind == "new-step"]
            if not options:
                continue
            base = new_step_base(plan, oc.fact, oc.consumer)
            cold = [apply_resolver(plan, r) for r in options]
            assert [apply_resolver(plan, r, base) for r in options] == cold
            actions = [r.action for r in options]
            vectors = [feature_vector(child, tables) for child in cold]
            for i, name in enumerate(FEATURE_NAMES):
                assert new_step_values(name, base, tables, actions) == [v[i] for v in vectors]
            for ev in evaluators:
                assert ev.rank_new_steps(base, actions) == [ev.rank(child) for child in cold]
            predicted = [model.predict(v) for v in vectors]
            assert [model_ev.rank(child) for child in cold] == predicted
            assert model_ev.rank_new_steps(base, actions) == predicted
        flaws = collect_flaws(plan)
        if not flaws:
            break
        options = [c for r in resolvers(plan, rng.choice(flaws), task)
                   if (c := apply_resolver(plan, r)) is not None]
        if not options:
            break
        plan = rng.choice(options)


def _new_step_actions(plan, task, fact, max_copies) -> list[int]:
    """Adders of ``fact`` below the copy bound, counting copies over all steps."""
    copies = [act.id for act in plan.steps]
    return [aid for aid in task.adders[fact]
            if max_copies is None or copies.count(aid) < max_copies]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 8), depth=st.integers(0, 30))
def test_new_step_copy_bound_matches_brute_force(seed, max_facts, depth):
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts, max_actions=6)
    plan = null_plan(task)
    for _ in range(depth):
        for oc in plan.open_conds:
            for max_copies in (1, 2, None):
                got = [r.action.id for r in resolvers(plan, oc, task, max_copies=max_copies)
                       if r.kind == "new-step"]
                assert got == _new_step_actions(plan, task, oc.fact, max_copies)
        flaws = collect_flaws(plan)
        if not flaws:
            break
        # no copy bound while refining, so plans reach many copies of an action
        options = [c for r in resolvers(plan, rng.choice(flaws), task, max_copies=None)
                   if (c := apply_resolver(plan, r)) is not None]
        if not options:
            break
        plan = rng.choice(options)


def test_resolver_record_interface(chain_task):
    plan = null_plan(chain_task)
    (flaw,) = plan.open_conds
    act = chain_task.actions[chain_task.adders[flaw.fact][0]]
    res = Resolver(kind="new-step", fact=flaw.fact, consumer=flaw.consumer, action=act)
    assert res.kind == "new-step" and res.cost == 1
    assert res.producer is None and res.ordering is None
    assert Resolver("promotion", ordering=(2, 3)).cost == 0
    assert res in resolvers(plan, flaw, chain_task)
    child = apply_resolver(plan, res)
    assert child.steps[child.newest_step] is act
    assert OpenCondition(flaw.fact, flaw.consumer) not in child.open_conds
