"""Grounding of parsed STRIPS domains into propositional tasks.

Grounding is eager and deterministic: facts and actions are numbered by
declaration order, and the fact set is the full set of type-consistent
instantiations of the declared predicates. Unit action costs throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .pddl import (ROOT_TYPE, Atom, DomainAst, ProblemAst, TypedName, UndeclaredNameError,
                   atom_text, check_problem)


@dataclass(frozen=True)
class GroundAction:
    """A fully instantiated unit-cost action over fact indices."""
    id: int
    name: str                 # "schema obj1 obj2 ..."
    pre: frozenset[int]
    add: frozenset[int]
    delete: frozenset[int]

    def __str__(self) -> str:
        return f"({self.name})"


@dataclass
class GroundTask:
    """Grounded task: indexed facts and actions plus init/goal index sets."""
    domain_name: str
    problem_name: str
    facts: tuple[str, ...]
    actions: tuple[GroundAction, ...]
    init: frozenset[int]
    goal: frozenset[int]
    fact_ids: dict[str, int] = field(repr=False, default_factory=dict)

    @cached_property
    def adders(self) -> tuple[tuple[int, ...], ...]:
        """For each fact index, ids of actions that add it."""
        by_fact: list[list[int]] = [[] for _ in self.facts]
        for act in self.actions:
            for f in act.add:
                by_fact[f].append(act.id)
        return tuple(tuple(ids) for ids in by_fact)


def _is_subtype(ty: str, ancestor: str, parents: dict[str, str]) -> bool:
    if ancestor == ROOT_TYPE:
        return True
    cur = ty
    seen = set()
    while cur not in seen:
        if cur == ancestor:
            return True
        seen.add(cur)
        cur = parents.get(cur, ROOT_TYPE)
    return False


def _candidates(objects: tuple[TypedName, ...], ty: str, parents: dict[str, str]) -> list[str]:
    return [o.name for o in objects if _is_subtype(o.type, ty, parents)]


def ground(domain: DomainAst, problem: ProblemAst) -> GroundTask:
    """Instantiate all type-consistent bindings of every schema and predicate.

    Bindings violating an ``=`` constraint are pruned; unreachable facts and
    actions are kept.
    """
    check_problem(domain, problem)
    parents = domain.type_parents()
    objects = domain.constants + problem.objects

    fact_ids: dict[str, int] = {}
    fact_names: list[str] = []

    def intern(pred: str, args: tuple[str, ...]) -> int:
        key = atom_text(pred, args)
        idx = fact_ids.get(key)
        if idx is None:
            idx = len(fact_names)
            fact_ids[key] = idx
            fact_names.append(key)
        return idx

    for pname, pparams in domain.predicates:
        pools = [_candidates(objects, p.type, parents) for p in pparams]
        for combo in product(*pools):
            intern(pname, tuple(combo))

    def resolve(atom: Atom, binding: dict[str, str], where: str, filename: str) -> int:
        """The fact ``atom`` names under ``binding``; an error at the atom in
        ``filename``, the file that holds it, if no such fact exists."""
        args = tuple(binding.get(a, a) for a in atom.args)
        key = atom_text(atom.pred, args)
        idx = fact_ids.get(key)
        if idx is None:
            raise UndeclaredNameError(f"atom {key} in {where} is not type-consistent",
                                      filename, *atom.pos)
        return idx

    actions: list[GroundAction] = []
    for schema in domain.schemas:
        where = f"action {schema.name}"
        pools = [_candidates(objects, p.type, parents) for p in schema.params]
        names = [p.name for p in schema.params]
        for combo in product(*pools):
            binding = dict(zip(names, combo))
            ok = True
            for eq in schema.eq_constraints:
                left = binding.get(eq.left, eq.left)
                right = binding.get(eq.right, eq.right)
                if (left == right) != eq.equal:
                    ok = False
                    break
            if not ok:
                continue
            pre = frozenset(resolve(a, binding, where, domain.filename) for a in schema.precond)
            add = frozenset(resolve(a, binding, where, domain.filename) for a in schema.add)
            dele = frozenset(resolve(a, binding, where, domain.filename) for a in schema.delete)
            name = " ".join((schema.name,) + combo)
            # add wins over delete (PDDL semantics); keeps add/delete disjoint
            actions.append(GroundAction(len(actions), name, pre, add, dele - add))

    init = frozenset(resolve(a, {}, ":init", problem.filename) for a in problem.init)
    goal = frozenset(resolve(a, {}, ":goal", problem.filename) for a in problem.goal)

    return GroundTask(domain.name, problem.name, tuple(fact_names), tuple(actions),
                      init, goal, fact_ids)


def load_task(domain_path: str, problem_path: str) -> GroundTask:
    from .pddl import load_domain, load_problem

    return ground(load_domain(domain_path), load_problem(problem_path))
