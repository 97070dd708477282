"""Feature heuristics over partial plans.

Six features per plan: the action count, the open-condition count, and four
delete-relaxation sums (additive cost and additive effort, each with and
without credit for facts an existing step can already supply). The cost
tables are computed once per task from the initial state. ``new_step_values``
gives one feature of each new-step child of one open condition without
building the children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .grounding import GroundAction, GroundTask
from .plans import NewStepBase, PartialPlan

INF = math.inf


class FeatureVector(NamedTuple):
    h_gval: float
    h_oc: float
    h_add: float
    h_add_w: float
    h_add_r: float
    h_add_w_r: float


FEATURE_NAMES = FeatureVector._fields


@dataclass(frozen=True)
class CostTable:
    """Least fixpoint of the delete-relaxed additive recursion over facts."""
    variant: str                 # "plain" | "effort"
    fact_cost: tuple[float, ...]


@dataclass(frozen=True)
class CostTables:
    plain: CostTable
    effort: CostTable


def additive_costs(task: GroundTask, variant: str = "plain") -> CostTable:
    """Bellman-style sweeps to the fixpoint of
    cost(f) = 0 for f in init, else min over adders a of w(a) + sum cost(pre(a)).

    w(a) is 1 for the plain variant and |pre(a)| + 1 for the effort variant.
    Unreachable facts stay at +inf.
    """
    if variant not in ("plain", "effort"):
        raise ValueError(f"unknown cost-table variant {variant!r}")
    cost = [INF] * len(task.facts)
    for f in task.init:
        cost[f] = 0.0
    weights = [1.0 if variant == "plain" else float(len(a.pre) + 1) for a in task.actions]

    changed = True
    while changed:
        changed = False
        for act in task.actions:
            total = weights[act.id]
            for p in act.pre:
                cp = cost[p]
                if cp == INF:
                    total = INF
                    break
                total += cp
            if total == INF:
                continue
            for f in act.add:
                if total < cost[f]:
                    cost[f] = total
                    changed = True
    return CostTable(variant, tuple(cost))


def build_tables(task: GroundTask) -> CostTables:
    return CostTables(additive_costs(task, "plain"), additive_costs(task, "effort"))


def eval_add(plan: PartialPlan, table: CostTable, reuse: bool = False) -> float:
    """Sum of table costs over open conditions; with ``reuse`` a condition an
    existing step can consistently supply contributes 0.

    A step can supply ``fact`` to ``consumer`` when it adds the fact, is not
    the consumer and does not come after it: one mask test.
    """
    producers, after = plan.producers, plan.after
    total = 0.0
    for fact, consumer in plan.open_conds:
        if reuse and producers.get(fact, 0) & ~((1 << consumer) | after[consumer]):
            continue
        c = table.fact_cost[fact]
        if c == INF:
            return INF
        total += c
    return total


def feature_vector(plan: PartialPlan, tables: CostTables) -> FeatureVector:
    """All six features, in the fixed (g, oc, add, add_w, add_r, add_w_r) order:
    the real-action count, the open-condition count and the four sums.

    One pass over the open conditions; the reusability test (as in
    ``eval_add``) is shared by the two discounted sums.
    """
    producers, after = plan.producers, plan.after
    add = add_w = add_r = add_w_r = 0.0
    for fact, consumer in plan.open_conds:
        plain = tables.plain.fact_cost[fact]
        effort = tables.effort.fact_cost[fact]
        add += plain
        add_w += effort
        if not producers.get(fact, 0) & ~((1 << consumer) | after[consumer]):
            add_r += plain
            add_w_r += effort
    return FeatureVector(float(plan.action_count), float(len(plan.open_conds)),
                         add, add_w, add_r, add_w_r)


# The four sums by feature name: (cost table, credit for reusable facts).
_SUMS = {"h_add": ("plain", False), "h_add_w": ("effort", False),
         "h_add_r": ("plain", True), "h_add_w_r": ("effort", True)}


def _sum_of(name: str, tables: CostTables) -> tuple[CostTable, bool]:
    """The (table, reuse) pair of the sum feature ``name``."""
    if name not in _SUMS:
        raise ValueError(f"unknown feature {name!r}")
    variant, reuse = _SUMS[name]
    return getattr(tables, variant), reuse


def feature_value(name: str, plan: PartialPlan, tables: CostTables) -> float:
    """One named feature, equal to ``feature_vector(plan, tables)`` at that
    name. Kept beside the vector because one sum costs about a third of the
    whole vector, and a single-feature evaluator needs only the one."""
    if name == "h_gval":
        return float(plan.action_count)
    if name == "h_oc":
        return float(len(plan.open_conds))
    return eval_add(plan, *_sum_of(name, tables))


def _new_step_sums(base: NewStepBase, table: CostTable, reuse: bool,
                   actions: list[GroundAction]) -> list[float]:
    """``eval_add`` of each new-step child of ``base``, one per action, from
    one pass over the base's open conditions: the sibling kernel.

    A child adds one step ``sid``, ordered only after a0, and its action
    ``act``: its open conditions are the base's plus ``(p, sid)`` for each
    ``p`` in ``act.pre``. A base condition ``(f, c)`` no parent step can
    supply becomes reusable iff ``f`` is in ``act.add``, since ``sid`` is
    never after ``c``; ``(p, sid)`` is reusable iff a parent step adding
    ``p`` is not after ``sid``. The base sum keeps its +inf terms as a count
    and, with ``reuse``, the number of not-yet-reusable conditions per fact,
    so a child's sum never subtracts inf. Costs are integer-valued floats,
    so every sum is exact in any order and equals the built child's.
    """
    cost = table.fact_cost
    producers, after = base.plan.producers, base.after
    total, infs, waiting = 0.0, 0, {}
    for fact, consumer in base.open_conds:
        if reuse:
            if producers.get(fact, 0) & ~((1 << consumer) | after[consumer]):
                continue
            waiting[fact] = waiting.get(fact, 0) + 1
        c = cost[fact]
        if c == INF:
            infs += 1
        else:
            total += c
    sid_after = after[-1]
    out = []
    for act in actions:
        child_total, child_infs = total, infs
        if reuse:
            for f in act.add:
                n = waiting.get(f)
                if n:
                    c = cost[f]
                    if c == INF:
                        child_infs -= n
                    else:
                        child_total -= n * c
        for p in act.pre:
            if reuse and producers.get(p, 0) & ~sid_after:
                continue
            c = cost[p]
            if c == INF:
                child_infs += 1
            else:
                child_total += c
        out.append(INF if child_infs else child_total)
    return out


def new_step_values(name: str, base: NewStepBase, tables: CostTables,
                    actions: list[GroundAction]) -> list[float]:
    """``feature_value(name, child)`` of each new-step child of ``base``,
    one per action, without building the children."""
    if name == "h_gval":
        return [float(base.plan.action_count + 1)] * len(actions)
    if name == "h_oc":
        return [float(len(base.open_conds) + len(act.pre)) for act in actions]
    return _new_step_sums(base, *_sum_of(name, tables), actions)

