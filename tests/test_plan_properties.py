"""Property tests for the bitmask plan core.

Random refinements of small random tasks are checked against brute-force
scans over ``plan.steps`` and ``plan.links`` and against an ordering edge set
the test keeps itself, so the closure and the fact -> step mask are never
trusted to check themselves.
"""

from __future__ import annotations

import copy
from dataclasses import fields, replace
from random import Random
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poclkit import search
from poclkit.heuristics import FEATURE_NAMES, build_tables, feature_vector, new_step_values
from poclkit.learning import LinearModel
from poclkit.plans import (GOAL_STEP, INIT_STEP, CausalLink, NewStepBase, OpenCondition,
                           PartialPlan, Resolver, Threat, apply_resolver, is_solution, linearize,
                           new_step_actions, null_plan, resolvers, step_sequence, validate)
from poclkit.search import FeatureEvaluator, ModelEvaluator, expand, select_flaw

from conftest import random_task
from oracles import (built, collect_flaws, costliest_local_flaw, new_step_children,
                     random_linearization, refinements)


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


def _snapshot(task, plan):
    assert type(plan.producers) is list and len(plan.producers) == len(task.facts)
    return (dict(enumerate(plan.steps)), dict(enumerate(plan.after)),
            list(plan.producers), plan.links, plan.open_conds, plan.threats, plan.newest_step)


def _check_plan(task, tables, plan, edges):
    reach = _reach(range(len(plan.steps)), edges)
    assert dict(enumerate(plan.after)) == {sid: sum(1 << n for n in after)
                                           for sid, after in reach.items()}
    facts = range(len(task.facts))
    assert type(plan.producers) is list and len(plan.producers) == len(task.facts)
    assert {f: m for f in facts
            if (m := sum(1 << s for s, a in enumerate(plan.steps) if f in a.add))} \
        == {f: m for f, m in enumerate(plan.producers) if m}

    assert set(plan.threats) == _threats(plan, reach)
    assert len(set(plan.threats)) == len(plan.threats)

    # all six features from the plan's steps and open conditions: the reuse
    # sums skip conditions a brute-force scan finds a reuser for
    plain, effort = tables.plain.fact_cost, tables.effort.fact_cost
    expected = dict.fromkeys(FEATURE_NAMES, 0.0)
    expected["h_gval"] = float(len(plan.steps) - 2)    # less a0 and a_inf
    expected["h_oc"] = float(len(plan.open_conds))
    for fact, consumer in plan.open_conds:
        reuse = [r.producer for r in resolvers(plan, OpenCondition(fact, consumer))
                 if r.kind == "reuse"]
        assert reuse == _reusers(plan, reach, fact, consumer)
        expected["h_add"] += plain[fact]
        expected["h_add_w"] += effort[fact]
        if not reuse:
            expected["h_add_r"] += plain[fact]
            expected["h_add_w_r"] += effort[fact]
    assert feature_vector(plan, tables)._asdict() == expected

    order, done = linearize(plan), set()
    assert sorted(order) == list(range(len(plan.steps)))
    for sid in order:
        ready = [s for s in range(len(plan.steps)) if s not in done
                 and all(b != s or a in done for a, b in edges)]
        assert sid == min(ready)
        done.add(sid)


def _new_edges(child, flaw, resolver) -> list[tuple[int, int]]:
    """The edges ``child`` adds to its parent: ``resolver``'s, or a new
    step's when ``resolver`` is None."""
    if resolver is None:
        sid = child.newest_step
        return [(INIT_STEP, sid), (sid, GOAL_STEP), (sid, flaw.consumer)]
    if resolver.kind in ("promotion", "demotion"):
        return [resolver.ordering]
    return [(resolver.producer, resolver.consumer)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 12), depth=st.integers(0, 30))
def test_random_refinements_match_brute_force(seed, max_facts, depth):
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts)
    tables = build_tables(task)
    plan, edges = null_plan(task), {(INIT_STEP, GOAL_STEP)}
    path = [(plan, _snapshot(task, plan))]
    for _ in range(depth):
        _check_plan(task, tables, plan, edges)
        flaws = collect_flaws(plan)
        if not flaws:
            break
        flaw = rng.choice(flaws)
        options = resolvers(plan, flaw)
        children = refinements(plan, flaw, task)
        if not children:
            break
        assert _snapshot(task, plan) == path[-1][1]
        i = rng.randrange(len(children))
        if children[i] is None:
            break
        resolver = options[i] if i < len(options) else None    # None: a new step
        edges = edges | set(_new_edges(children[i], flaw, resolver))
        plan = children[i]
        path.append((plan, _snapshot(task, plan)))
    _check_plan(task, tables, plan, edges)
    # refining a descendant never reaches back into an ancestor's containers
    assert all(_snapshot(task, p) == snap for p, snap in path)
    if is_solution(plan):
        for _ in range(3):
            assert validate(task, step_sequence(plan, random_linearization(plan, rng)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(2, 10), depth=st.integers(0, 25))
def test_select_flaw_matches_its_definition(seed, max_facts, depth):
    # random tasks give +inf and tied costs; a shuffled copy of each plan's
    # open conditions puts the newest step's anywhere in the tuple
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts)
    tables = build_tables(task)
    plan = null_plan(task)
    for _ in range(depth):
        shuffled = replace(plan, open_conds=tuple(rng.sample(plan.open_conds,
                                                             len(plan.open_conds))))
        for p in (plan, shuffled):
            if p.threats or p.open_conds:
                for strategy, table in (("mc-loc", tables.plain), ("mw-loc", tables.effort)):
                    assert select_flaw(p, strategy, tables) == \
                        costliest_local_flaw(p, table.fact_cost)
        flaws = collect_flaws(plan)
        if not flaws:
            break
        options = [c for c in refinements(plan, rng.choice(flaws), task) if c is not None]
        if not options:
            break
        plan = rng.choice(options)


def _fields(plan) -> tuple:
    return tuple(getattr(plan, f.name) for f in fields(PartialPlan))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 10), depth=st.integers(0, 20))
def test_expand_children_match_cold_applications(seed, max_facts, depth):
    # ``expand`` returns one flaw's new-step children pending on one shared
    # base, built later by ``built``; the cold children are built from a
    # fresh copy of the plan, each new-step child on a base of its own
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
        batches = []
        for flaw in chosen:
            with patch.object(search, "select_flaw", lambda *_, flaw=flaw: flaw):
                batches.append(built(expand(plan, task, "mw-loc", tables)))
        for flaw, batch in zip(chosen, batches):
            cold = [c for c in refinements(copy.copy(plan), flaw, task) if c is not None]
            assert [_fields(c) for c in batch] == [_fields(c) for c in cold]
        children = [c for batch in batches for c in batch]
        if not children:
            break
        plan = rng.choice(children)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 10), depth=st.integers(0, 20),
       max_copies=st.sampled_from([1, 2, None]))
def test_expand_shape(seed, max_facts, depth, max_copies):
    # the built children first, then at most one (base, actions) pair, never
    # with no actions; [] exactly when the flaw has no consistent child
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts, max_actions=6)
    tables = build_tables(task)
    plan = null_plan(task)
    for _ in range(depth):
        flaws = collect_flaws(plan)
        if not flaws:
            break
        flaw = rng.choice(flaws)
        with patch.object(search, "select_flaw", lambda *_: flaw):
            children = expand(plan, task, "mw-loc", tables, max_copies)
        applied = [c for r in resolvers(plan, flaw) if (c := apply_resolver(plan, r)) is not None]
        actions = ([] if isinstance(flaw, Threat)
                   else new_step_actions(plan, flaw.fact, task, max_copies))
        assert (children == []) == (not applied and not actions)
        if actions:
            base, pending = children[-1]
            assert type(base) is NewStepBase and base.plan is plan
            assert (base.fact, base.consumer) == tuple(flaw)
            assert pending == actions
            plans = children[:-1]
        else:
            plans = children
        assert all(type(c) is PartialPlan for c in plans)
        flat = built(children)
        expected = applied + ([base.child(act) for act in actions] if actions else [])
        assert [_fields(c) for c in flat] == [_fields(c) for c in expected]
        if not flat:
            break
        plan = rng.choice(flat)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), max_facts=st.integers(3, 12), depth=st.integers(0, 20),
       mask=st.lists(st.integers(0, len(FEATURE_NAMES) - 1), unique=True),
       weights=st.lists(st.floats(-4.0, 4.0), min_size=len(FEATURE_NAMES) + 1,
                        max_size=len(FEATURE_NAMES) + 1))
def test_pending_new_step_children_rank_and_build_like_built_ones(seed, max_facts, depth,
                                                                   mask, weights):
    # random tasks give +inf facts and actions adding other conditions' facts;
    # a model of any mask, the empty one included, in any order, ranks from
    # its masked features alone exactly as it predicts from the full vector;
    # the one-weight model of a feature ranks every child as the feature does
    rng = Random(seed)
    task = random_task(rng, max_facts=max_facts)
    tables = build_tables(task)
    model = LinearModel(tuple(weights[:len(mask)]), weights[-1], tuple(mask))
    model_ev = ModelEvaluator(model, tables)
    evaluators = [FeatureEvaluator(name, tables) for name in FEATURE_NAMES]
    one_weight = [ModelEvaluator(LinearModel((1.0,), 0.0, (i,)), tables)
                  for i in range(len(FEATURE_NAMES))]
    plan = null_plan(task)
    assert model_ev.rank(plan) == model.predict(feature_vector(plan, tables))
    assert [one.rank(plan) for one in one_weight] == [ev.rank(plan) for ev in evaluators]
    for _ in range(depth):
        for oc in plan.open_conds:
            actions = new_step_actions(plan, oc.fact, task)
            if not actions:
                continue
            base = NewStepBase(plan, oc.fact, oc.consumer)
            cold = new_step_children(plan, oc, task)
            assert [base.child(act) for act in actions] == cold
            vectors = [feature_vector(child, tables) for child in cold]
            for i, name in enumerate(FEATURE_NAMES):
                assert new_step_values(name, base, tables, actions) == [v[i] for v in vectors]
            for ev, one in zip(evaluators, one_weight):
                ranks = [ev.rank(child) for child in cold]
                assert ev.rank_new_steps(base, actions) == ranks
                assert one.rank_new_steps(base, actions) == ranks
                assert [one.rank(child) for child in cold] == ranks
            predicted = [model.predict(v) for v in vectors]
            assert [model_ev.rank(child) for child in cold] == predicted
            assert model_ev.rank_new_steps(base, actions) == predicted
        flaws = collect_flaws(plan)
        if not flaws:
            break
        options = [c for c in refinements(plan, rng.choice(flaws), task) if c is not None]
        for ev, one in zip(evaluators, one_weight):    # reuse and ordering children too
            assert [one.rank(child) for child in options] == [ev.rank(child) for child in options]
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
                got = [act.id for act in new_step_actions(plan, oc.fact, task, max_copies)]
                assert got == _new_step_actions(plan, task, oc.fact, max_copies)
        flaws = collect_flaws(plan)
        if not flaws:
            break
        # no copy bound while refining, so plans reach many copies of an action
        options = [c for c in refinements(plan, rng.choice(flaws), task, max_copies=None)
                   if c is not None]
        if not options:
            break
        plan = rng.choice(options)


def test_resolver_record_interface(chain_task):
    plan = null_plan(chain_task)
    (flaw,) = plan.open_conds
    act = chain_task.actions[chain_task.adders[flaw.fact][0]]
    assert act in new_step_actions(plan, flaw.fact, chain_task)
    plan = NewStepBase(plan, *flaw).child(act)
    assert plan.steps[plan.newest_step] is act
    assert OpenCondition(flaw.fact, flaw.consumer) not in plan.open_conds
    # a record stands for a refinement that adds no step: here a reuse of a0
    (plan,) = new_step_children(plan, plan.open_conds[0], chain_task)
    (flaw,) = plan.open_conds
    res = Resolver(kind="reuse", fact=flaw.fact, consumer=flaw.consumer, producer=INIT_STEP)
    assert res.kind == "reuse" and res.ordering is None
    assert Resolver("promotion", ordering=(2, 3)).producer is None
    assert res in resolvers(plan, flaw)
    child = apply_resolver(plan, res)
    assert child.steps is plan.steps
    assert child.links == plan.links + (CausalLink(INIT_STEP, flaw.fact, flaw.consumer),)
    assert OpenCondition(flaw.fact, flaw.consumer) not in child.open_conds
