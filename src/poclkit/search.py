"""Greedy best-first search over partial plans.

Plans are ranked by a pluggable evaluator; flaws are chosen by the MC-Loc or
MW-Loc rule (threats first, then the costliest open condition local to the
newest step). Ranks are frozen at node-generation time: a tracker update never
re-ranks plans already in the queue.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .grounding import GroundTask
from .heuristics import CostTables, build_tables, feature_value, feature_vector
from .plans import (Flaw, PartialPlan, apply_resolver, is_solution, makespan, null_plan,
                    resolvers)
from .tuning import ErrorTracker, TraceRow, step_error

log = logging.getLogger("poclkit.search")

STRATEGIES = ("mc-loc", "mw-loc")


@dataclass
class SearchLimits:
    max_generated: int = 1_000_000    # memory grows with the open list, not this count
    wall_time: float = 900.0


class FeatureEvaluator:
    """Ranks plans by a single base feature."""

    def __init__(self, feature: str, tables: CostTables):
        self.name = feature
        self.tables = tables

    def rank(self, plan: PartialPlan) -> float:
        return feature_value(self.name, plan, self.tables)


class ModelEvaluator:
    """Ranks plans by a learned model over the feature vector."""

    def __init__(self, model, tables: CostTables):
        self.model = model
        self.tables = tables
        self.name = f"model:{model.metadata.get('base_heuristic', '?')}"

    def rank(self, plan: PartialPlan) -> float:
        return self.model.predict(feature_vector(plan, self.tables))


class EnhancedEvaluator:
    """Wraps an evaluator with an error tracker; ranking uses the enhanced
    value while ``raw`` exposes the inner rank for error observation."""

    def __init__(self, inner, tracker: Optional[ErrorTracker] = None):
        self.inner = inner
        self.tracker = tracker if tracker is not None else ErrorTracker()
        self.name = inner.name + ":enhanced"

    def raw(self, plan: PartialPlan) -> float:
        return self.inner.rank(plan)

    def rank(self, plan: PartialPlan) -> float:
        return self.tracker.enhance(self.inner.rank(plan))


@dataclass
class SearchResult:
    outcome: str                      # "solved" | "exhausted" | "limit-hit"
    plan: Optional[PartialPlan]
    generated: int
    visited: int
    elapsed: float
    plan_length: Optional[int] = None
    makespan: Optional[int] = None
    trace: list[TraceRow] = field(default_factory=list)
    solution_node_id: Optional[int] = None
    generated_plans: list[PartialPlan] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.outcome == "solved"


def select_flaw(plan: PartialPlan, strategy: str, tables: CostTables) -> Flaw:
    """Most adverse flaw: newest threat if any, else the open condition with
    the highest table cost among those local to the newest step (falling back
    to all open conditions), ties to the lowest fact index, then consumer."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown flaw strategy {strategy!r}")
    if plan.threats:
        return plan.threats[-1]
    cost = (tables.plain if strategy == "mc-loc" else tables.effort).fact_cost
    local = [oc for oc in plan.open_conds if oc.consumer == plan.newest_step]
    return min(local or plan.open_conds, key=lambda oc: (-cost[oc.fact], oc.fact, oc.consumer))


def expand(plan: PartialPlan, task: GroundTask, strategy, tables: CostTables,
           max_copies: Optional[int] = 2) -> list[PartialPlan]:
    """Children from resolving the selected flaw; inconsistent ones dropped.

    ``strategy`` is one of the named rules or a callable
    ``(plan, tables) -> Flaw`` for custom flaw selection.
    """
    flaw = strategy(plan, tables) if callable(strategy) else \
        select_flaw(plan, strategy, tables)
    children = []
    for res in resolvers(plan, flaw, task, max_copies=max_copies):
        child = apply_resolver(plan, res)
        if child is not None:
            children.append(child)
    return children


def _best_index(ranks: list[float], children: list[PartialPlan]) -> int:
    """Argmin by rank; ties by fewer actions, then by insertion order."""
    best_i = 0
    best_key = (ranks[0], children[0].action_count)
    for i in range(1, len(children)):
        key = (ranks[i], children[i].action_count)
        if key < best_key:
            best_i, best_key = i, key
    return best_i


def best_child(children: list[PartialPlan], evaluator) -> PartialPlan:
    """The child with the least ``evaluator.rank``, ties as in :func:`gbfs`."""
    return children[_best_index([evaluator.rank(ch) for ch in children], children)]


def gbfs(task: GroundTask, evaluator, strategy: str = "mw-loc",
         limits: Optional[SearchLimits] = None, tables: Optional[CostTables] = None,
         root: Optional[PartialPlan] = None, max_copies: Optional[int] = 2,
         record_trace: bool = False, collect_generated: bool = False,
         observe_zero_cost: bool = False) -> SearchResult:
    """Greedy best-first search from ``root`` (default: the null plan).

    Queue order is (rank, action count, FIFO). If the evaluator carries an
    error tracker, each expansion observes the parent/best-child step error
    before the children are enqueued with enhanced ranks.

    The open list holds the only reference to a queued plan, so a visited
    plan is freed once its children are queued and memory grows with the
    open list, not with every generated node. ``collect_generated`` keeps
    every generated plan alive on purpose. Node ids (trace rows,
    ``solution_node_id``) number plans in generation order, the root 0.
    """
    if limits is None:
        limits = SearchLimits()
    if tables is None:
        tables = build_tables(task)
    tracker = getattr(evaluator, "tracker", None)
    raw_rank = evaluator.raw if tracker is not None else evaluator.rank

    start = time.monotonic()
    plan0 = root if root is not None else null_plan(task)
    h0 = raw_rank(plan0)
    trace: list[TraceRow] = []
    if record_trace:
        trace.append(TraceRow(0, -1, h0, plan0.action_count))
    generated = 1    # also the next node id; ids are unique, so entries never compare plans
    visited = 0
    rank0 = tracker.enhance(h0) if tracker is not None else h0
    # (rank, action count, node id, plan, raw rank)
    heap: list[tuple[float, int, int, PartialPlan, float]] = \
        [(rank0, plan0.action_count, 0, plan0, h0)]
    generated_plans: list[PartialPlan] = []

    def finish(outcome: str, plan: Optional[PartialPlan] = None,
               node_id: Optional[int] = None) -> SearchResult:
        elapsed = time.monotonic() - start
        result = SearchResult(outcome, plan, generated, visited, elapsed,
                              trace=trace, solution_node_id=node_id,
                              generated_plans=generated_plans)
        if plan is not None:
            result.plan_length = plan.action_count
            result.makespan = makespan(plan)
        return result

    while heap:
        if time.monotonic() - start > limits.wall_time:
            return finish("limit-hit")
        _, _, node_id, plan, h_parent = heapq.heappop(heap)
        visited += 1
        if is_solution(plan):
            return finish("solved", plan, node_id)
        if log.isEnabledFor(logging.DEBUG) and visited % 5000 == 0:
            log.debug("visited=%d generated=%d queue=%d", visited, generated, len(heap))

        children = expand(plan, task, strategy, tables, max_copies=max_copies)
        if not children:
            continue
        raws = [raw_rank(ch) for ch in children]
        best_i = _best_index(raws, children)

        if tracker is not None:
            cost = children[best_i].action_count - plan.action_count
            if math.isfinite(h_parent) and math.isfinite(raws[best_i]) \
                    and (cost == 1 or observe_zero_cost):
                tracker.observe(step_error(h_parent, raws[best_i], float(cost)))
            ranks = [tracker.enhance(r) for r in raws]
        else:
            ranks = raws

        for i, child in enumerate(children):
            if generated >= limits.max_generated:
                return finish("limit-hit")
            child_id = generated
            generated += 1
            if record_trace:
                trace.append(TraceRow(child_id, node_id, raws[i], child.action_count,
                                      i == best_i))
            if collect_generated:
                generated_plans.append(child)
            heapq.heappush(heap, (ranks[i], child.action_count, child_id, child, raws[i]))

    return finish("exhausted")
