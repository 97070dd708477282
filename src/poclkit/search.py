"""Greedy best-first search over partial plans.

Plans are ranked by a pluggable evaluator; flaws are chosen by the MC-Loc or
MW-Loc rule (threats first, then the costliest open condition local to the
newest step). Ranks are frozen at node-generation time: a tracker update never
re-ranks plans already in the queue.

A new-step child is queued pending, as its flaw's shared ``NewStepBase`` and
its action in the heap entry itself, and built by ``NewStepBase.child`` only
when popped; about half of all generated plans are never popped, and the
open list holds no resolver records. It is ranked at generation from
``new_step_values``, which gives the built child's features exactly, so the
search is the same as if every child were built at once; the base builds
what its children share only when the first of them is popped. A
``ModelEvaluator`` computes only the features its model's mask names, one
``feature_value`` or ``new_step_values`` column each.
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
from .plans import (MAX_COPIES, Flaw, NewStepBase, PartialPlan, Threat, apply_resolver,
                    is_solution, makespan, new_step_actions, null_plan, resolvers,
                    step_sequence, validate)
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
    names; the rank equals ``model.predict(feature_vector(plan, tables))``.
    With a ``tracker``, ``gbfs`` tunes the model online: it feeds the tracker
    step errors of these ranks and queues each child at ``tracker.enhance``
    of its rank."""

    def __init__(self, model, tables: CostTables, tracker: Optional[ErrorTracker] = None):
        self.model = model
        self.tables = tables
        self.tracker = tracker
        self.features = tuple(FEATURE_NAMES[i] for i in model.mask)

    def rank(self, plan: PartialPlan) -> float:
        return self.model.score([feature_value(name, plan, self.tables)
                                 for name in self.features])

    def rank_new_steps(self, base: NewStepBase, actions: list[GroundAction]) -> list[float]:
        """``rank`` of each new-step child of ``base``, without building it."""
        columns = [new_step_values(name, base, self.tables, actions) for name in self.features]
        rows = zip(*columns) if columns else [()] * len(actions)
        return [self.model.score(row) for row in rows]


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
    newest = len(plan.steps) - 1
    best, best_local, best_cost = None, False, 0.0
    for oc in plan.open_conds:
        fact, consumer = oc
        local = consumer == newest
        c = cost[fact]
        if best is not None:    # keep ``best`` if ``oc`` is not local and it is, or comes later
            if local != best_local:
                if best_local:
                    continue
            elif c < best_cost or c == best_cost and oc >= best:
                continue
        best, best_local, best_cost = oc, local, c
    if best is None:
        raise ValueError("select_flaw: the plan has no flaw")
    return best


def expand(plan: PartialPlan, task: GroundTask, strategy: str, tables: CostTables,
           max_copies: Optional[int] = MAX_COPIES) -> list:
    """Children from resolving ``select_flaw``'s flaw; an empty list is a dead end.

    The plans of ``resolvers``' refinements come first, inconsistent ones
    dropped. For an open condition with at least one action in
    ``new_step_actions``, one pair of its shared ``NewStepBase`` and those
    actions comes last; ``base.child(action)`` builds each new-step child.
    """
    flaw = select_flaw(plan, strategy, tables)
    children = []
    for res in resolvers(plan, flaw):
        child = apply_resolver(plan, res)
        if child is not None:
            children.append(child)
    if not isinstance(flaw, Threat):
        actions = new_step_actions(plan, flaw.fact, task, max_copies)
        if actions:
            children.append((NewStepBase(plan, *flaw), actions))
    return children


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
         record_trace: bool = False) -> SearchResult:
    """Greedy best-first search from ``root`` (default: the null plan).

    ``evaluator`` ranks a built plan by ``rank(plan)`` and a flaw's new-step
    children, unbuilt, by ``rank_new_steps(base, actions)``. Queue order is
    (rank, action count, FIFO). For an evaluator with a ``tracker``, each
    expansion whose best child adds a step observes the parent/best-child
    step error of the evaluator's raw ranks before the children are enqueued
    with enhanced ranks. A solution that does not re-simulate raises RuntimeError.

    A new-step child is queued pending, as its base and its action, and
    built when popped; other children are built at generation. A queued
    entry keeps at most one plan alive, its own or, when pending, its
    parent's, so memory grows with the open list, not with every generated
    node; no resolver outlives its expansion. ``record_trace`` records a ``TraceRow``
    per generated node and builds each child into ``generated_plans`` as it
    is queued, so a recorded search keeps every generated plan alive. Node
    ids (trace rows, ``solution_node_id``) number plans in generation order,
    the root 0. An unknown ``strategy`` or a ``max_copies`` below 1 raises
    ValueError.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown flaw strategy {strategy!r}")
    if max_copies is not None and not max_copies >= 1:
        raise ValueError(f"max_copies must be None or >= 1, got {max_copies!r}")
    if limits is None:
        limits = SearchLimits()
    if tables is None:
        tables = build_tables(task)
    tracker = getattr(evaluator, "tracker", None)
    rank, rank_new_steps = evaluator.rank, evaluator.rank_new_steps

    start = time.monotonic()
    plan0 = root if root is not None else null_plan(task)
    h0 = rank(plan0)
    trace: list[TraceRow] = []
    if record_trace:
        trace.append(TraceRow(0, -1, h0, plan0.action_count))
    generated = 1    # also the next node id; ids are unique, so entries never compare children
    visited = 0
    rank0 = tracker.enhance(h0) if tracker is not None else h0
    # (rank, action count, node id, plan or base, action or None, raw rank);
    # a pending child's entry holds its base and its action
    heap: list[tuple[float, int, int, Union[PartialPlan, NewStepBase],
                     Optional[GroundAction], float]] = \
        [(rank0, plan0.action_count, 0, plan0, None, h0)]
    generated_plans: list[PartialPlan] = []
    debug = log.isEnabledFor(logging.DEBUG)
    max_generated, wall_time = limits.max_generated, limits.wall_time

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
        if time.monotonic() - start > wall_time:
            return finish("limit-hit")
        _, _, node_id, plan, act, h_parent = heapq.heappop(heap)
        if act is not None:    # ``plan`` is the base of a pending child
            plan = plan.child(act)
        visited += 1
        if is_solution(plan):
            return finish("solved", plan, node_id)
        if debug and visited % 5000 == 0:
            log.debug("visited=%d generated=%d queue=%d", visited, generated, len(heap))

        plans = expand(plan, task, strategy, tables, max_copies)
        if not plans:
            continue
        # the flaw's new-step children, if any, are the last entry, one (base, actions) pair
        base, actions = plans.pop() if type(plans[-1]) is tuple else (None, ())
        raws = [rank(child) for child in plans]
        n = plan.action_count
        counts = [n] * len(raws)    # reuse and ordering children add no step
        if actions:
            raws += rank_new_steps(base, actions)
            counts += [n + 1] * len(actions)
        if tracker is not None or record_trace:
            best_i = _best_index(raws, counts)

        if tracker is not None:
            cost = counts[best_i] - n
            if cost == 1 and math.isfinite(h_parent) and math.isfinite(raws[best_i]):
                tracker.observe(step_error(h_parent, raws[best_i]))
            ranks = [tracker.enhance(r) for r in raws]
        else:
            ranks = raws

        n_plans = len(plans)
        for i, raw in enumerate(raws):
            if generated >= max_generated:
                return finish("limit-hit")
            if i < n_plans:
                child, act = plans[i], None
            else:
                child, act = base, actions[i - n_plans]
            if record_trace:
                trace.append(TraceRow(generated, node_id, raw, counts[i], i == best_i))
                if act is not None:
                    child, act = base.child(act), None
                generated_plans.append(child)
            heapq.heappush(heap, (ranks[i], counts[i], generated, child, act, raw))
            generated += 1

    return finish("exhausted")
