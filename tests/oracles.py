"""Independent oracles used to freeze expected values in tests.

Each oracle deliberately uses a different formulation from the code under
test: plain-dict value iteration for additive costs, breadth-first state
search for optimal lengths, closed-form two-parameter least squares, an
exhaustive plan-space enumeration for minimum remaining refinement cost, and
a recursive-descent reader over the tokens of each line for s-expressions.
Beside them are the test-only helpers: ``new_step_children`` and
``refinements`` for the children of one flaw, ``built`` for the children of
``expand``, random linearizations for validation sampling, and PDDL printers
for the parser's round-trip tests.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import product
from random import Random

from poclkit.grounding import GroundTask
from poclkit.pddl import DomainAst, ParseError, ProblemAst, TypedName, atom_text
from poclkit.plans import (MAX_COPIES, Flaw, NewStepBase, OpenCondition, PartialPlan,
                           _threat_sort_key, _topological, apply_resolver, is_solution,
                           new_step_actions, resolvers)

INF = float("inf")


def collect_flaws(plan: PartialPlan) -> list[Flaw]:
    """All flaws, threats first, each kind sorted by (consumer, fact)."""
    threats = sorted(plan.threats, key=_threat_sort_key)
    ocs = sorted(plan.open_conds, key=lambda oc: (oc.consumer, oc.fact))
    return list(threats) + list(ocs)


def costliest_local_flaw(plan: PartialPlan, fact_cost) -> Flaw:
    """The MC-/MW-Loc rule by its definition: the newest threat, else the
    open condition of highest ``fact_cost`` among those of the newest step
    (all of them if it has none), ties to the lowest fact, then consumer."""
    if plan.threats:
        return plan.threats[-1]
    local = [oc for oc in plan.open_conds if oc.consumer == plan.newest_step]
    return min(local or plan.open_conds, key=lambda oc: (-fact_cost[oc.fact], oc.fact, oc.consumer))


def bellman_costs(task: GroundTask, variant: str) -> list[float]:
    """Value iteration over a dict, actions traversed in reversed order."""
    cost = {f: (0.0 if f in task.init else INF) for f in range(len(task.facts))}
    while True:
        stable = True
        for act in reversed(task.actions):
            w = 1.0 if variant == "plain" else len(act.pre) + 1.0
            total = w
            for p in act.pre:
                total += cost[p]
            if total == INF:
                continue
            for f in act.add:
                if total < cost[f]:
                    cost[f] = total
                    stable = False
        if stable:
            return [cost[f] for f in range(len(task.facts))]


def bfs_optimal_length(task: GroundTask, max_states: int = 2_000_000) -> int | None:
    """Optimal sequential plan length by breadth-first search over states."""
    start = frozenset(task.init)
    if task.goal <= start:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, depth = frontier.popleft()
        for act in task.actions:
            if act.pre <= state:
                nxt = frozenset((state - act.delete) | act.add)
                if task.goal <= nxt:
                    return depth + 1
                if nxt not in seen:
                    if len(seen) >= max_states:
                        raise RuntimeError("state space too large for BFS oracle")
                    seen.add(nxt)
                    frontier.append((nxt, depth + 1))
    return None


def relaxed_goal_depth(task: GroundTask, goal_fact: int) -> float:
    """Shortest relaxed plan reaching one fact: BFS over delete-relaxed states."""
    state = frozenset(task.init)
    if goal_fact in state:
        return 0.0
    seen = {state}
    frontier = deque([(state, 0)])
    while frontier:
        s, depth = frontier.popleft()
        for act in task.actions:
            if act.pre <= s:
                nxt = frozenset(s | act.add)   # deletes ignored
                if goal_fact in nxt:
                    return depth + 1.0
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, depth + 1))
    return INF


def ols_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Closed-form simple regression: returns (slope, intercept)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def min_new_actions(task: GroundTask, plan: PartialPlan, cap: int = 12) -> int | None:
    """Exhaustive plan-space search: minimum number of new-step refinements
    that complete ``plan``. Iterative deepening over added actions."""

    def dfs(p: PartialPlan, budget: int, depth: int) -> bool:
        if is_solution(p):
            return True
        if depth > 40:
            return False
        flaws = collect_flaws(p)
        flaw = flaws[0]
        for res in resolvers(p, flaw):    # each adds no step, so costs 0
            child = apply_resolver(p, res)
            if child is not None and dfs(child, budget, depth + 1):
                return True
        if budget and isinstance(flaw, OpenCondition):    # a new step costs 1
            for child in new_step_children(p, flaw, task, max_copies=2):
                if dfs(child, budget - 1, depth + 1):
                    return True
        return False

    for budget in range(cap + 1):
        if dfs(plan, budget, 0):
            return budget
    return None


def enumerate_bindings(objects_by_type: dict[str, list[str]],
                       param_types: list[str]) -> list[tuple[str, ...]]:
    """Brute-force type-consistent binding tuples for a schema signature."""
    pools = [objects_by_type[t] for t in param_types]
    return list(product(*pools))


def read_sexpr(text: str):
    """The one top-level list of ``text`` by recursive descent: a list is
    ``("(", line, col, items)`` and a word ``(word, line, col)``, lower-cased.
    Anything but exactly one list raises ParseError."""
    tokens = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        code = line.split(";", 1)[0]
        tokens += [(m.group().lower(), line_no, m.start() + 1)
                   for m in re.finditer(r"[()]|[^ \t\r();]+", code)]

    def read(i: int):
        word, line, col = tokens[i]
        if word != "(":
            return (word, line, col), i + 1
        items = []
        i += 1
        while i < len(tokens) and tokens[i][0] != ")":
            item, i = read(i)
            items.append(item)
        if i == len(tokens):
            raise ParseError("missing closing parenthesis")
        return ("(", line, col, tuple(items)), i + 1

    if not tokens or tokens[0][0] != "(":
        raise ParseError("expected one parenthesized form")
    form, end = read(0)
    if end != len(tokens):
        raise ParseError("trailing content after top-level form")
    return form


def new_step_children(plan: PartialPlan, oc: OpenCondition, task: GroundTask,
                      max_copies: int | None = MAX_COPIES) -> list[PartialPlan]:
    """The new-step children of ``oc``, one per action of ``new_step_actions``
    in its order, each built on a base of its own."""
    return [NewStepBase(plan, *oc).child(act)
            for act in new_step_actions(plan, oc.fact, task, max_copies)]


def refinements(plan: PartialPlan, flaw: Flaw, task: GroundTask,
                max_copies: int | None = MAX_COPIES) -> list[PartialPlan | None]:
    """Every child of ``flaw`` in ``expand``'s order: ``resolvers``' applied
    (None where an ordering cycles), then an open condition's new-step
    children as ``new_step_children`` builds them."""
    children = [apply_resolver(plan, res) for res in resolvers(plan, flaw)]
    if isinstance(flaw, OpenCondition):
        children += new_step_children(plan, flaw, task, max_copies)
    return children


def built(children: list) -> list[PartialPlan]:
    """The plans of ``expand``'s children, its final (base, actions) pair
    built now."""
    if children and type(children[-1]) is tuple:
        base, actions = children[-1]
        return children[:-1] + [base.child(act) for act in actions]
    return children


def random_linearization(plan: PartialPlan, rng: Random) -> list[int]:
    """A uniformly arbitrary topological order (for validation sampling)."""
    return _topological(plan, lambda ready: rng.randrange(len(ready)))


def _fmt_typed_list(names: tuple[TypedName, ...]) -> str:
    return " ".join(f"{n.name} - {n.type}" for n in names)


def domain_to_pddl(domain: DomainAst) -> str:
    lines = [f"(define (domain {domain.name})"]
    lines.append("  (:requirements " + " ".join(domain.requirements) + ")")
    if domain.types:
        lines.append("  (:types " + _fmt_typed_list(domain.types) + ")")
    if domain.constants:
        lines.append("  (:constants " + _fmt_typed_list(domain.constants) + ")")
    preds = " ".join(atom_text(name, tuple(f"{p.name} - {p.type}" for p in params))
                     for name, params in domain.predicates)
    lines.append(f"  (:predicates {preds})")
    for s in domain.schemas:
        pre = [str(a) for a in s.precond]
        pre += [f"(= {e.left} {e.right})" if e.equal else f"(not (= {e.left} {e.right}))"
                for e in s.eq_constraints]
        eff = [str(a) for a in s.add] + [f"(not {a})" for a in s.delete]
        lines.append(f"  (:action {s.name}")
        lines.append(f"    :parameters ({_fmt_typed_list(s.params)})")
        lines.append("    :precondition (and " + " ".join(pre) + ")")
        lines.append("    :effect (and " + " ".join(eff) + "))")
    lines.append(")")
    return "\n".join(lines)


def problem_to_pddl(problem: ProblemAst) -> str:
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain_name})"]
    if problem.objects:
        lines.append("  (:objects " + _fmt_typed_list(problem.objects) + ")")
    lines.append("  (:init " + " ".join(str(a) for a in problem.init) + ")")
    lines.append("  (:goal (and " + " ".join(str(a) for a in problem.goal) + "))")
    lines.append(")")
    return "\n".join(lines)
