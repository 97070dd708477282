"""Partial plans and their refinement semantics.

A partial plan is a set of steps, ordering constraints, causal links, open
conditions, and threats. Plans are persistent values: ``apply`` returns a new
plan and never mutates its input; children share every container they do not
change. The ordering closure, one "comes after" bitmask per step updated
incrementally on edge insertion, is the only ordering structure: the
linearizations and the schedule read their edges from it, which is sound
because the closure has the same reachability as the inserted edges. One
fact -> step bitmask, ``producers``, makes the reuse test a mask operation;
threats are found by scanning the steps (new link) or the links (new step).
Every evaluation reads ``producers``: scanning the steps there instead kept
the plans but slowed the suite-reuse benchmark from 0.62 s to 0.79 s.

Step 0 is the initial dummy (adds the initial state), step 1 the goal dummy
(whose preconditions are the goal); real steps are numbered from 2, and ids
are contiguous. The steps and the closure are tuples indexed by step id; the
causal links and open conditions are tuples in the order they were
introduced. A child is built from slices and concatenations of its parent's
tuples, and a child that does not change one shares the parent's object.
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
    steps: tuple[GroundAction, ...]           # indexed by step id
    after: tuple[int, ...]                    # step id -> bitmask of steps strictly after it;
                                              # the transitive closure, the one ordering record
    producers: dict[int, int]                 # fact -> bitmask of steps adding it
    links: tuple[CausalLink, ...]             # in introduction order, oldest first
    open_conds: tuple[OpenCondition, ...]     # in introduction order, oldest first
    threats: tuple[Threat, ...]               # in introduction order, oldest first

    @property
    def action_count(self) -> int:
        return len(self.steps) - 2

    @property
    def newest_step(self) -> int:
        """The most recently added step (the goal dummy in the null plan)."""
        return len(self.steps) - 1

    def ordered(self, before: int, after_step: int) -> bool:
        """Is ``before ≺ after_step`` entailed by the ordering closure?"""
        return bool((self.after[before] >> after_step) & 1)

    def can_order(self, before: int, after_step: int) -> bool:
        """Could ``before ≺ after_step`` be added without creating a cycle?"""
        return before != after_step and not self.ordered(after_step, before)

    def __repr__(self) -> str:
        return (f"PartialPlan(actions={self.action_count}, oc={len(self.open_conds)}, "
                f"threats={len(self.threats)})")


def _add_edge(after: tuple[int, ...], x: int, y: int) -> Optional[tuple[int, ...]]:
    """The closure with x ≺ y inserted: ``after`` itself when the edge is
    already entailed, None if it would cycle."""
    if x == y or (after[y] >> x) & 1:
        return None
    if (after[x] >> y) & 1:
        return after
    gain = after[y] | (1 << y)
    xbit = 1 << x
    return tuple([mask | gain if u == x or mask & xbit else mask
                  for u, mask in enumerate(after)])


def _without(open_conds: tuple[OpenCondition, ...],
             oc: OpenCondition) -> tuple[OpenCondition, ...]:
    """``open_conds`` less ``oc``; the same tuple when ``oc`` is not open."""
    try:
        i = open_conds.index(oc)
    except ValueError:
        return open_conds
    return open_conds[:i] + open_conds[i + 1:]


def _threat_live(after: tuple[int, ...], threat: Threat) -> bool:
    t, (p, _, c) = threat
    return not ((after[t] >> p) & 1) and not ((after[c] >> t) & 1)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _threats_on_link(after: tuple[int, ...], steps: tuple[GroundAction, ...],
                     link: CausalLink) -> list[Threat]:
    """Live threats on ``link``, ascending by threatening step."""
    p, q, c = link
    skip = (1 << p) | (1 << c) | after[c]
    return [Threat(t, link) for t, act in enumerate(steps)
            if q in act.delete and not (skip >> t) & 1 and not (after[t] >> p) & 1]


def _threats_by_step(after: tuple[int, ...], sid: int, act: GroundAction,
                     links: tuple[CausalLink, ...]) -> list[Threat]:
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
        steps=(init_action(task), goal_action(task)),
        after=(1 << GOAL_STEP, 0),
        producers=dict.fromkeys(task.init, 1 << INIT_STEP),
        links=(),
        open_conds=tuple(OpenCondition(g, GOAL_STEP) for g in task.goal),
        threats=(),
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
    if resolver.kind in ("promotion", "demotion"):
        x, y = resolver.ordering
        after = _add_edge(plan.after, x, y)
        if after is None:
            return None
        return PartialPlan(
            steps=plan.steps,
            after=after,
            producers=plan.producers,
            links=plan.links,
            open_conds=plan.open_conds,
            threats=tuple(th for th in plan.threats if _threat_live(after, th)),
        )

    q, c = resolver.fact, resolver.consumer
    if resolver.kind == "reuse":
        p = resolver.producer
        after = _add_edge(plan.after, p, c)
        if after is None:
            return None
        link = CausalLink(p, q, c)
        threats = [th for th in plan.threats if _threat_live(after, th)]
        threats += _threats_on_link(after, plan.steps, link)
        return PartialPlan(
            steps=plan.steps,
            after=after,
            producers=plan.producers,
            links=plan.links + (link,),
            open_conds=_without(plan.open_conds, OpenCondition(q, c)),
            threats=tuple(threats),
        )

    # A fresh step sits after a0 and before a_inf and c: it cannot close a
    # cycle, and it orders no pair of existing steps, so every old threat
    # stays live.
    act = resolver.action
    sid = len(plan.steps)
    bit = 1 << sid
    after = list(plan.after)
    after.append((1 << GOAL_STEP) | (1 << c) | after[c])
    after[INIT_STEP] |= bit
    after = tuple(after)
    producers = dict(plan.producers)
    for f in act.add:
        producers[f] = producers.get(f, 0) | bit
    link = CausalLink(sid, q, c)
    fresh = _threats_by_step(after, sid, act, plan.links)
    fresh += _threats_on_link(after, plan.steps, link)   # the fresh step is the producer
    fresh.sort(key=_threat_sort_key)
    return PartialPlan(
        steps=plan.steps + (act,),
        after=after,
        producers=producers,
        links=plan.links + (link,),
        open_conds=_without(plan.open_conds, OpenCondition(q, c))
        + tuple([OpenCondition(f, sid) for f in act.pre]),
        threats=plan.threats + tuple(fresh),
    )


# ── Linearization, scheduling, validation ────────────────────────────────────

def _topological(plan: PartialPlan, pick) -> list[int]:
    """Kahn's algorithm over the closure; ``pick(ready)`` is the index of the
    ready step to emit next. Newly ready steps join ``ready`` ascending."""
    indeg = [0] * len(plan.steps)
    for mask in plan.after:
        for sid in _bits(mask):
            indeg[sid] += 1
    ready = [sid for sid, d in enumerate(indeg) if d == 0]
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
    level = [0] * len(plan.steps)
    for sid in linearize(plan):
        for nxt in _bits(plan.after[sid]):
            if level[nxt] <= level[sid]:
                level[nxt] = level[sid] + 1
    return {sid: level[sid] - 1 for sid in range(GOAL_STEP + 1, len(plan.steps))}


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
