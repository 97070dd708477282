"""Independent plan check: re-simulate a plan's text from the PDDL itself.

The planner's own ``plans.validate`` runs on ground actions built by its
grounder. This check shares neither: it reads the plan text that the planner
prints, instantiates each named action schema from the parsed domain by
substituting the printed arguments, and steps a set of atom strings from the
problem's initial state. A plan passes when every step is applicable and the
goal holds after the last one, under both linearizations that the text
allows to be read off: slot order with ties in line order, and slot order
with ties in reverse line order. Steps sharing a slot are unordered in a
partial-order plan, so a sound plan passes both.
"""

from __future__ import annotations

import re

from poclkit.pddl import DomainAst, ProblemAst

_LINE = re.compile(r"^(\d+): \(([^()]*)\)$")


class PlanCheckError(Exception):
    pass


def read_plan(text: str) -> list[tuple[int, str, tuple[str, ...]]]:
    """(slot, schema name, arguments) per step line; the makespan line is skipped."""
    steps = []
    for line in text.splitlines():
        if not line or line.startswith(";"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise PlanCheckError(f"unreadable plan line {line!r}")
        name, *args = match.group(2).split()
        steps.append((int(match.group(1)), name, tuple(args)))
    return steps


def _atom(pred: str, args, binding: dict[str, str]) -> str:
    return "(" + " ".join([pred] + [binding.get(a, a) for a in args]) + ")"


def _is_a(ty: str, wanted: str, parents: dict[str, str]) -> bool:
    while True:
        if ty == wanted:
            return True
        parent = parents.get(ty)
        if parent is None or parent == ty:
            return wanted == "object"
        ty = parent


class Simulator:
    """STRIPS step semantics for one (domain, problem) pair."""

    def __init__(self, domain: DomainAst, problem: ProblemAst):
        self.schemas = {s.name: s for s in domain.schemas}
        self.parents = {t.name: t.type for t in domain.types}
        self.objects = {o.name: o.type for o in domain.constants + problem.objects}
        self.init = frozenset(_atom(a.pred, a.args, {}) for a in problem.init)
        self.goal = frozenset(_atom(a.pred, a.args, {}) for a in problem.goal)

    def _step(self, name: str, args: tuple[str, ...]):
        schema = self.schemas.get(name)
        if schema is None or len(schema.params) != len(args):
            raise PlanCheckError(f"no schema {name}/{len(args)}")
        for param, arg in zip(schema.params, args):
            ty = self.objects.get(arg)
            if ty is None or not _is_a(ty, param.type, self.parents):
                raise PlanCheckError(f"({name} {' '.join(args)}): {arg} is not a {param.type}")
        binding = {p.name: a for p, a in zip(schema.params, args)}
        for eq in schema.eq_constraints:
            same = binding.get(eq.left, eq.left) == binding.get(eq.right, eq.right)
            if same != eq.equal:
                raise PlanCheckError(f"({name} {' '.join(args)}) breaks an equality constraint")
        pre = {_atom(a.pred, a.args, binding) for a in schema.precond}
        add = {_atom(a.pred, a.args, binding) for a in schema.add}
        delete = {_atom(a.pred, a.args, binding) for a in schema.delete}
        return pre, add, delete

    def run(self, sequence: list[tuple[str, tuple[str, ...]]]) -> None:
        state = set(self.init)
        for i, (name, args) in enumerate(sequence):
            pre, add, delete = self._step(name, args)
            missing = pre - state
            if missing:
                raise PlanCheckError(f"step {i} ({name} {' '.join(args)}) lacks "
                                     f"{' '.join(sorted(missing))}")
            state -= delete
            state |= add
        unmet = self.goal - state
        if unmet:
            raise PlanCheckError(f"goal not reached: {' '.join(sorted(unmet))}")

    def check(self, text: str) -> int:
        """Raise PlanCheckError unless both linearizations reach the goal;
        returns the number of steps."""
        steps = read_plan(text)
        indexed = list(enumerate(steps))
        for tie in (1, -1):
            order = sorted(indexed, key=lambda item: (item[1][0], tie * item[0]))
            self.run([(name, args) for _, (_, name, args) in order])
        return len(steps)
