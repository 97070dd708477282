"""Partial plans and their refinement semantics.

A partial plan is a set of steps, ordering constraints, causal links, open
conditions, and threats. Plans are persistent values: ``apply`` returns a new
plan and never mutates its input; children share every container they do not
change. The ordering closure, one "comes after" bitmask per step updated
incrementally on edge insertion, is the only ordering structure: the
linearizations and the schedule read their edges from it, which is sound
because the closure has the same reachability as the inserted edges. Two
fact -> step bitmasks (which steps add, which delete each fact) turn the reuse
and threat tests into mask operations against the closure.

Step 0 is the initial dummy (adds the initial state), step 1 the goal dummy
(whose preconditions are the goal); real steps are numbered from 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import NamedTuple, Optional, Union

from .grounding import GroundAction, GroundTask

INIT_STEP = 0
GOAL_STEP = 1


class CausalLink(NamedTuple):
    producer: int
    fact: int
    consumer: int


class OpenCondition(NamedTuple):
    fact: int
    consumer: int


class Threat(NamedTuple):
    step: int
    link: CausalLink


Flaw = Union[OpenCondition, Threat]


class Resolver(NamedTuple):
    """One way to remove a flaw. ``new-step`` resolvers cost 1, others 0."""
    kind: str  # "reuse" | "new-step" | "promotion" | "demotion"
    fact: Optional[int] = None
    consumer: Optional[int] = None
    producer: Optional[int] = None
    action: Optional[GroundAction] = None
    ordering: Optional[tuple[int, int]] = None

    @property
    def cost(self) -> int:
        return 1 if self.kind == "new-step" else 0


@dataclass(slots=True)
class PartialPlan:
    steps: dict[int, GroundAction]
    after: dict[int, int]                     # step -> bitmask of steps strictly after it;
                                              # the transitive closure, the one ordering record
    producers: dict[int, int]                 # fact -> bitmask of steps adding it
    deleters: dict[int, int]                  # fact -> bitmask of steps deleting it
    links: frozenset[CausalLink]
    open_conds: frozenset[OpenCondition]
    threats: tuple[Threat, ...]               # in introduction order, oldest first
    newest_step: int

    @property
    def action_count(self) -> int:
        return len(self.steps) - 2

    def ordered(self, before: int, after_step: int) -> bool:
        """Is ``before ≺ after_step`` entailed by the ordering closure?"""
        return bool((self.after[before] >> after_step) & 1)

    def can_order(self, before: int, after_step: int) -> bool:
        """Could ``before ≺ after_step`` be added without creating a cycle?"""
        return before != after_step and not self.ordered(after_step, before)

    def __repr__(self) -> str:
        return (f"PartialPlan(actions={self.action_count}, oc={len(self.open_conds)}, "
                f"threats={len(self.threats)})")


def _add_edge(after: dict[int, int], x: int, y: int) -> bool:
    """Insert x ≺ y into the closure in place; False if it would cycle."""
    if x == y or (after[y] >> x) & 1:
        return False
    if (after[x] >> y) & 1:
        return True
    gain = after[y] | (1 << y)
    xbit = 1 << x
    for u, mask in after.items():
        if u == x or mask & xbit:
            after[u] = mask | gain
    return True


def _threat_live(after: dict[int, int], threat: Threat) -> bool:
    t, (p, _, c) = threat
    return not ((after[t] >> p) & 1) and not ((after[c] >> t) & 1)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _threats_on_link(after: dict[int, int], deleters: dict[int, int],
                     link: CausalLink) -> list[Threat]:
    """Live threats on ``link``, ascending by threatening step."""
    p, q, c = link
    candidates = deleters.get(q, 0) & ~((1 << p) | (1 << c) | after[c])
    return [Threat(t, link) for t in _bits(candidates) if not (after[t] >> p) & 1]


def _threats_by_step(after: dict[int, int], sid: int, act: GroundAction,
                     links: frozenset[CausalLink]) -> list[Threat]:
    """Live threats a freshly added step poses to existing links.

    Only a0 precedes a fresh step and a0 is never a consumer, so a threat is
    live unless the link's producer already comes after the step.
    """
    if not act.delete:
        return []
    reach = after[sid]
    return [Threat(sid, link) for link in links
            if link.fact in act.delete and not (reach >> link.producer) & 1]


def _threat_sort_key(th: Threat) -> tuple[int, int, int, int]:
    return (th.link.consumer, th.link.fact, th.step, th.link.producer)


def init_action(task: GroundTask) -> GroundAction:
    return GroundAction(-1, "<init>", frozenset(), task.init, frozenset())


def goal_action(task: GroundTask) -> GroundAction:
    return GroundAction(-2, "<goal>", task.goal, frozenset(), frozenset())


def null_plan(task: GroundTask) -> PartialPlan:
    """The empty plan: the two dummies, a0 ≺ a_inf, one open condition per goal."""
    return PartialPlan(
        steps={INIT_STEP: init_action(task), GOAL_STEP: goal_action(task)},
        after={INIT_STEP: 1 << GOAL_STEP, GOAL_STEP: 0},
        producers=dict.fromkeys(task.init, 1 << INIT_STEP),
        deleters={},
        links=frozenset(),
        open_conds=frozenset(OpenCondition(g, GOAL_STEP) for g in task.goal),
        threats=(),
        newest_step=GOAL_STEP,
    )


def is_solution(plan: PartialPlan) -> bool:
    return not plan.open_conds and not plan.threats


def collect_flaws(plan: PartialPlan) -> list[Flaw]:
    """All flaws, threats first, each kind sorted by (consumer, fact)."""
    threats = sorted(plan.threats, key=_threat_sort_key)
    ocs = sorted(plan.open_conds, key=lambda oc: (oc.consumer, oc.fact))
    return list(threats) + list(ocs)


def resolvers(plan: PartialPlan, flaw: Flaw, task: GroundTask,
              max_copies: Optional[int] = 2) -> list[Resolver]:
    """All refinements removing ``flaw``; empty list means a dead end.

    ``max_copies`` bounds how many steps may share one ground-action id,
    cutting achieve/destroy loops; ``None`` disables the filter.
    """
    out: list[Resolver] = []
    if isinstance(flaw, Threat):
        t, link = flaw
        if plan.can_order(t, link.producer):
            out.append(Resolver("promotion", ordering=(t, link.producer)))
        if plan.can_order(link.consumer, t):
            out.append(Resolver("demotion", ordering=(link.consumer, t)))
        return out

    q, c = flaw
    for sid in _bits(plan.producers.get(q, 0) & ~((1 << c) | plan.after[c])):
        out.append(Resolver("reuse", fact=q, consumer=c, producer=sid))
    # Only copies of q's adders are compared with the bound, and every step
    # holding one adds q: the producers of q other than a0 are the steps to count.
    copies: dict[int, int] = {}
    if max_copies is not None:
        for sid in _bits(plan.producers.get(q, 0) & ~(1 << INIT_STEP)):
            aid = plan.steps[sid].id
            copies[aid] = copies.get(aid, 0) + 1
    for aid in task.adders[q]:
        if max_copies is not None and copies.get(aid, 0) >= max_copies:
            continue
        out.append(Resolver("new-step", fact=q, consumer=c, action=task.actions[aid]))
    return out


def apply_resolver(plan: PartialPlan, resolver: Resolver) -> Optional[PartialPlan]:
    """A new plan with the resolver applied, or None if an ordering cycles."""
    after = dict(plan.after)

    if resolver.kind in ("promotion", "demotion"):
        x, y = resolver.ordering
        if not _add_edge(after, x, y):
            return None
        return PartialPlan(
            steps=plan.steps,
            after=after,
            producers=plan.producers,
            deleters=plan.deleters,
            links=plan.links,
            open_conds=plan.open_conds,
            threats=tuple(th for th in plan.threats if _threat_live(after, th)),
            newest_step=plan.newest_step,
        )

    q, c = resolver.fact, resolver.consumer
    if resolver.kind == "reuse":
        p = resolver.producer
        if not _add_edge(after, p, c):
            return None
        link = CausalLink(p, q, c)
        threats = [th for th in plan.threats if _threat_live(after, th)]
        threats += _threats_on_link(after, plan.deleters, link)
        return PartialPlan(
            steps=plan.steps,
            after=after,
            producers=plan.producers,
            deleters=plan.deleters,
            links=plan.links | {link},
            open_conds=plan.open_conds - {OpenCondition(q, c)},
            threats=tuple(threats),
            newest_step=plan.newest_step,
        )

    # A fresh step sits after a0 and before a_inf and c: it cannot close a
    # cycle, and it orders no pair of existing steps, so every old threat
    # stays live.
    act = resolver.action
    sid = max(plan.steps) + 1
    bit = 1 << sid
    after[sid] = (1 << GOAL_STEP) | (1 << c) | after[c]
    after[INIT_STEP] |= bit
    producers = dict(plan.producers)
    for f in act.add:
        producers[f] = producers.get(f, 0) | bit
    deleters = plan.deleters
    if act.delete:
        deleters = dict(deleters)
        for f in act.delete:
            deleters[f] = deleters.get(f, 0) | bit
    link = CausalLink(sid, q, c)
    fresh = _threats_by_step(after, sid, act, plan.links)
    fresh += _threats_on_link(after, deleters, link)
    fresh.sort(key=_threat_sort_key)
    return PartialPlan(
        steps={**plan.steps, sid: act},
        after=after,
        producers=producers,
        deleters=deleters,
        links=plan.links | {link},
        open_conds=(plan.open_conds - {OpenCondition(q, c)})
        | {OpenCondition(f, sid) for f in act.pre},
        threats=plan.threats + tuple(fresh),
        newest_step=sid,
    )


# ── Linearization, scheduling, validation ────────────────────────────────────

def _topological(plan: PartialPlan, pick) -> list[int]:
    """Kahn's algorithm over the closure; ``pick(ready)`` is the index of the
    ready step to emit next. Newly ready steps join ``ready`` ascending."""
    indeg = dict.fromkeys(plan.steps, 0)
    for mask in plan.after.values():
        for sid in _bits(mask):
            indeg[sid] += 1
    ready = sorted(sid for sid, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        sid = ready.pop(pick(ready))
        order.append(sid)
        for nxt in _bits(plan.after[sid]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return order


def linearize(plan: PartialPlan) -> list[int]:
    """Deterministic topological order of all steps, a0 first, a_inf last:
    always the smallest ready step id."""
    return _topological(plan, lambda ready: ready.index(min(ready)))


def random_linearization(plan: PartialPlan, rng: Random) -> list[int]:
    """A uniformly arbitrary topological order (for validation sampling)."""
    return _topological(plan, lambda ready: rng.randrange(len(ready)))


def earliest_slots(plan: PartialPlan) -> dict[int, int]:
    """Earliest-start slot (0-based) for each real step under unit durations."""
    level = dict.fromkeys(plan.steps, 0)
    for sid in linearize(plan):
        for nxt in _bits(plan.after[sid]):
            if level[nxt] <= level[sid]:
                level[nxt] = level[sid] + 1
    return {sid: level[sid] - 1 for sid in plan.steps if sid not in (INIT_STEP, GOAL_STEP)}


def _span(slots: dict[int, int]) -> int:
    return max(slots.values()) + 1 if slots else 0


def makespan(plan: PartialPlan) -> int:
    """Depth of the earliest-start parallel schedule, dummies excluded."""
    return _span(earliest_slots(plan))


def step_sequence(plan: PartialPlan, order: Optional[list[int]] = None) -> list[GroundAction]:
    """The plan's real actions in linearization order."""
    if order is None:
        order = linearize(plan)
    return [plan.steps[sid] for sid in order if sid not in (INIT_STEP, GOAL_STEP)]


def validate(task: GroundTask, sequence: list[GroundAction]) -> bool:
    """Simulate from init; True iff all preconditions hold and the goal is reached."""
    state = set(task.init)
    for act in sequence:
        if not act.pre <= state:
            return False
        state -= act.delete
        state |= act.add
    return task.goal <= state


def format_plan(plan: PartialPlan) -> str:
    """Text form: one ``slot: (action args)`` line per step plus a makespan line."""
    slots = earliest_slots(plan)
    lines = [f"{slots[sid]}: ({plan.steps[sid].name})"
             for sid in sorted(slots, key=lambda s: (slots[s], s))]
    lines.append(f";; makespan={_span(slots)}")
    return "\n".join(lines) + "\n"
