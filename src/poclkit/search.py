"""Greedy best-first search over partial plans.

Plans are ranked by a pluggable evaluator; flaws are chosen by the MC-Loc or
MW-Loc rule (threats first, then the costliest open condition local to the
newest step). Ranks are frozen at node-generation time: a tracker update never
re-ranks plans already in the queue.

A new-step child is queued pending, as its flaw's shared new-step base and
its resolver, and built only when popped; about half of all generated plans
are never popped. It is ranked at generation from ``new_step_values``, which
gives the built child's features exactly, so the search is the same as if
every child were built at once. A ``ModelEvaluator`` computes only the
features its model's mask names, one ``feature_value`` or ``new_step_values``
column each.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .grounding import GroundAction, GroundTask
from .heuristics import (FEATURE_NAMES, CostTables, build_tables, feature_value,
                         new_step_values)
# not called here since models rank from their masked features; the name
# stays bound because perfbench's tracer wraps poclkit.search.feature_vector
from .heuristics import feature_vector  # noqa: F401
from .plans import (MAX_COPIES, Flaw, NewStepBase, PartialPlan, Resolver, apply_resolver,
                    is_solution, makespan, new_step_base, null_plan, resolvers, step_sequence,
                    validate)
from .tuning import ErrorTracker, TraceRow, step_error

log = logging.getLogger("poclkit.search")

STRATEGIES = ("mc-loc", "mw-loc")


@dataclass
class SearchLimits:
    max_generated: int = 1_000_000    # memory grows with the open list, not this count
    wall_time: float = 900.0          # seconds; math.inf for none

    def __post_init__(self):
        # a limit no search can meet would end every search after one node
        if not self.max_generated >= 1:
            raise ValueError(f"max_generated must be >= 1, got {self.max_generated!r}")
        if not self.wall_time > 0:
            raise ValueError(f"wall_time must be > 0, got {self.wall_time!r}")


class FeatureEvaluator:
    """Ranks plans by a single base feature."""

    def __init__(self, feature: str, tables: CostTables):
        self.name = feature
        self.tables = tables

    def rank(self, plan: PartialPlan) -> float:
        return feature_value(self.name, plan, self.tables)

    def rank_new_steps(self, base: NewStepBase, actions: list[GroundAction]) -> list[float]:
        """``rank`` of each new-step child of ``base``, without building it."""
        return new_step_values(self.name, base, self.tables, actions)


class ModelEvaluator:
    """Ranks plans by a learned model, computing only the features its mask
    names; the rank equals ``model.predict(feature_vector(plan, tables))``."""

    def __init__(self, model, tables: CostTables):
        self.model = model
        self.tables = tables
        self.features = tuple(FEATURE_NAMES[i] for i in model.mask)
        self.name = f"model:{model.metadata.get('base_heuristic', '?')}"

    def rank(self, plan: PartialPlan) -> float:
        return self.model.score([feature_value(name, plan, self.tables)
                                 for name in self.features])

    def rank_new_steps(self, base: NewStepBase, actions: list[GroundAction]) -> list[float]:
        """``rank`` of each new-step child of ``base``, without building it."""
        columns = [new_step_values(name, base, self.tables, actions) for name in self.features]
        rows = zip(*columns) if columns else [()] * len(actions)
        return [self.model.score(row) for row in rows]


class EnhancedEvaluator:
    """An evaluator paired with an error tracker. ``gbfs`` ranks children
    with ``inner``, feeds the tracker their step errors and queues each child
    at ``tracker.enhance`` of its raw rank; the record has no ranking of its
    own."""

    def __init__(self, inner, tracker: Optional[ErrorTracker] = None):
        self.inner = inner
        self.tracker = tracker if tracker is not None else ErrorTracker()
        self.name = inner.name + ":enhanced"


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
    newest = plan.newest_step
    local = [oc for oc in plan.open_conds if oc.consumer == newest]
    return min(local or plan.open_conds, key=lambda oc: (-cost[oc.fact], oc.fact, oc.consumer))


# A new-step child not built yet: its flaw's shared base and its resolver. A
# plain pair, since one is made per generated new-step child and a named
# tuple costs several times as much to make; a built child is a PartialPlan.
Pending = tuple[NewStepBase, Resolver]
Child = Union[PartialPlan, Pending]


def expand(plan: PartialPlan, task: GroundTask, strategy, tables: CostTables,
           max_copies: Optional[int] = MAX_COPIES) -> list[Child]:
    """Children from resolving the selected flaw; inconsistent ones dropped.

    New-step children come last, pending on one shared base; ``built`` gives
    the plan of any child. ``strategy`` is one of the named rules or a
    callable ``(plan, tables) -> Flaw`` for custom flaw selection.
    """
    flaw = strategy(plan, tables) if callable(strategy) else \
        select_flaw(plan, strategy, tables)
    children: list[Child] = []
    base = None
    for res in resolvers(plan, flaw, task, max_copies=max_copies):
        if res.kind == "new-step":
            if base is None:
                base = new_step_base(plan, res.fact, res.consumer)
            children.append((base, res))
        else:
            child = apply_resolver(plan, res)
            if child is not None:
                children.append(child)
    return children


def built(child: Child) -> PartialPlan:
    """The plan of a child from ``expand``; a pending one is built now."""
    if type(child) is tuple:
        base, res = child
        return apply_resolver(base.plan, res, base)
    return child


def _best_index(ranks: list[float], counts: list[int]) -> int:
    """Argmin by rank; ties by fewer actions (``counts``), then by insertion order."""
    best_i = 0
    best_key = (ranks[0], counts[0])
    for i in range(1, len(ranks)):
        key = (ranks[i], counts[i])
        if key < best_key:
            best_i, best_key = i, key
    return best_i


def gbfs(task: GroundTask, evaluator, strategy: str = "mw-loc",
         limits: Optional[SearchLimits] = None, tables: Optional[CostTables] = None,
         root: Optional[PartialPlan] = None, max_copies: Optional[int] = MAX_COPIES,
         record_trace: bool = False, collect_generated: bool = False) -> SearchResult:
    """Greedy best-first search from ``root`` (default: the null plan).

    ``evaluator`` ranks a built plan by ``rank(plan)`` and a flaw's new-step
    children, unbuilt, by ``rank_new_steps(base, actions)``. Queue order is
    (rank, action count, FIFO). An evaluator carrying an error tracker (an
    ``EnhancedEvaluator``) gives raw ranks through its ``inner`` evaluator:
    each expansion whose best child adds a step observes the
    parent/best-child step error before the children are enqueued with
    enhanced ranks. A solution that does not re-simulate raises RuntimeError.

    A new-step child is queued pending and built when popped; other children
    are built at generation. A queued entry keeps at most one plan alive, its
    own or, when pending, its parent's, so memory grows with the open list,
    not with every generated node. ``collect_generated`` builds each child
    as it is queued, after it is ranked the same way, and keeps every
    generated plan alive on purpose. Node ids (trace rows,
    ``solution_node_id``) number plans in generation order, the root 0.
    """
    if limits is None:
        limits = SearchLimits()
    if tables is None:
        tables = build_tables(task)
    tracker = getattr(evaluator, "tracker", None)
    ranker = evaluator.inner if tracker is not None else evaluator
    rank, rank_new_steps = ranker.rank, ranker.rank_new_steps

    start = time.monotonic()
    plan0 = root if root is not None else null_plan(task)
    h0 = rank(plan0)
    trace: list[TraceRow] = []
    if record_trace:
        trace.append(TraceRow(0, -1, h0, plan0.action_count))
    generated = 1    # also the next node id; ids are unique, so entries never compare children
    visited = 0
    rank0 = tracker.enhance(h0) if tracker is not None else h0
    # (rank, action count, node id, child, raw rank)
    heap: list[tuple[float, int, int, Child, float]] = \
        [(rank0, plan0.action_count, 0, plan0, h0)]
    generated_plans: list[PartialPlan] = []

    def finish(outcome: str, plan: Optional[PartialPlan] = None,
               node_id: Optional[int] = None) -> SearchResult:
        elapsed = time.monotonic() - start
        result = SearchResult(outcome, plan, generated, visited, elapsed,
                              trace=trace, solution_node_id=node_id,
                              generated_plans=generated_plans)
        if plan is not None:
            if not validate(task, step_sequence(plan)):
                raise RuntimeError(f"{task.problem_name}: the solution plan does not "
                                   "re-simulate from the initial state")
            result.plan_length = plan.action_count
            result.makespan = makespan(plan)
        return result

    while heap:
        if time.monotonic() - start > limits.wall_time:
            return finish("limit-hit")
        _, _, node_id, child, h_parent = heapq.heappop(heap)
        plan = built(child)
        visited += 1
        if is_solution(plan):
            return finish("solved", plan, node_id)
        if log.isEnabledFor(logging.DEBUG) and visited % 5000 == 0:
            log.debug("visited=%d generated=%d queue=%d", visited, generated, len(heap))

        children = expand(plan, task, strategy, tables, max_copies=max_copies)
        if not children:
            continue
        raws, counts, actions = [], [], []
        for ch in children:
            if type(ch) is tuple:
                actions.append(ch[1].action)
            else:
                raws.append(rank(ch))
                counts.append(ch.action_count)
        if actions:
            raws += rank_new_steps(children[-1][0], actions)
            counts += [plan.action_count + 1] * len(actions)
        best_i = _best_index(raws, counts)

        if tracker is not None:
            cost = counts[best_i] - plan.action_count
            if cost == 1 and math.isfinite(h_parent) and math.isfinite(raws[best_i]):
                tracker.observe(step_error(h_parent, raws[best_i]))
            ranks = [tracker.enhance(r) for r in raws]
        else:
            ranks = raws

        for i, child in enumerate(children):
            if generated >= limits.max_generated:
                return finish("limit-hit")
            child_id = generated
            generated += 1
            if record_trace:
                trace.append(TraceRow(child_id, node_id, raws[i], counts[i], i == best_i))
            if collect_generated:
                child = built(child)
                generated_plans.append(child)
            heapq.heappush(heap, (ranks[i], counts[i], child_id, child, raws[i]))

    return finish("exhausted")
