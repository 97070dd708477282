"""Partial plans and their refinement semantics.

A partial plan is a set of steps, ordering constraints, causal links, open
conditions, and threats. Plans are persistent values: ``apply`` returns a new
plan and never mutates its input; children share every container they do not
change. The ordering closure, one "comes after" bitmask per step updated
incrementally on edge insertion, is the only ordering structure: the
linearizations and the schedule read their edges from it, which is sound
because the closure has the same reachability as the inserted edges. One
step bitmask per fact, ``producers``, makes the reuse test a mask operation;
threats are found by scanning the steps (new link) or the links (new step).
Every evaluation reads ``producers``: scanning the steps there instead kept
the plans but slowed the suite-reuse benchmark from 0.62 s to 0.79 s.

Step 0 is the initial dummy (adds the initial state), step 1 the goal dummy
(whose preconditions are the goal); real steps are numbered from 2, and ids
are contiguous. The steps and the closure are tuples indexed by step id,
``producers`` a list indexed by fact id (0 where no step adds the fact); the
causal links and open conditions are tuples in the order they were
introduced. A child is built from slices and concatenations of its parent's
tuples and ``producers``, and a child that does not change one shares the
parent's object; no container is changed once its plan is built.

``producers`` costs 8 bytes per ground fact, where a fact -> mask dict cost
about 40 bytes per fact with a producer, so per built plan the list is the
smaller only while a task has fewer than about five times as many ground
facts as a plan has produced. Ground facts grow about with the square of the
objects and produced facts about linearly: on a 15-block tower (271 facts) a
built plan's list is about twice the dict, though the search peak still fell
there, since most queued children are pending and own no ``producers``
(``tools/mem_peaks.py``). It is a list, not a tuple, because CPython keeps
up to 2,000 freed tuples of each length up to 20 on free lists, which held
about 256 KB after the bundled suites' searches.

``resolvers`` gives the refinements that add no step: a threat's orderings
and an open condition's reuses. An open condition also has one new-step
child per action of ``new_step_actions``, the adders the copy bound admits.

The new-step children of one open condition, one per adding action, differ
only in the action. They share one ``NewStepBase``: the closure, the new
causal link and the links tuple, the open conditions less the supported one,
and the threats on the new link. ``NewStepBase.child`` is the one builder of
a new-step child, and each child builds only its steps, its ``producers``,
its action's preconditions as open conditions and the threats its step
poses to existing links. So a search can queue a child as its base plus its
action and build it only when popped. A base is made with only the parent
plan, the open condition and the new step's row of the closure, which is
what ranking the children reads; its shared part is built with its first
child, so a flaw none of whose children is popped never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .grounding import GroundAction, GroundTask

INIT_STEP = 0
GOAL_STEP = 1
MAX_COPIES = 2    # default bound on steps sharing one ground action; see ``new_step_actions``


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

# A NamedTuple's own ``__new__`` is a Python function. A new step's open
# conditions, made once per child, skip it: the same record, made about 2.5
# times as fast.
_record = tuple.__new__


class Resolver(NamedTuple):
    """One way to remove a flaw without adding a step."""
    kind: str  # "reuse" | "promotion" | "demotion"
    fact: Optional[int] = None
    consumer: Optional[int] = None
    producer: Optional[int] = None
    ordering: Optional[tuple[int, int]] = None


@dataclass(slots=True)
class PartialPlan:
    """A partial plan. It is never changed once built: a refinement is a new
    plan, and children share the parent's tuples and ``producers`` list,
    which relies on it."""
    steps: tuple[GroundAction, ...]           # indexed by step id
    after: tuple[int, ...]                    # step id -> bitmask of steps strictly after it;
                                              # the transitive closure, the one ordering record
    producers: list[int]                      # fact id -> bitmask of steps adding it
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


def _live_threats(after: tuple[int, ...], threats: tuple[Threat, ...]) -> list[Threat]:
    """The threats still live under the closure ``after``, in order."""
    live = []
    for threat in threats:
        t, (p, _, c) = threat
        if not (after[t] >> p) & 1 and not (after[c] >> t) & 1:
            live.append(threat)
    return live


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
    delete = act.delete
    if not delete:
        return []
    reach = after[sid]
    found = []
    for link in links:
        if link[1] in delete and not (reach >> link[0]) & 1:
            found.append(Threat(sid, link))
    return found


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
        producers=[1 << INIT_STEP if f in task.init else 0 for f in range(len(task.facts))],
        links=(),
        open_conds=tuple(OpenCondition(g, GOAL_STEP) for g in task.goal),
        threats=(),
    )


def is_solution(plan: PartialPlan) -> bool:
    return not plan.open_conds and not plan.threats


def resolvers(plan: PartialPlan, flaw: Flaw) -> list[Resolver]:
    """The refinements of ``flaw`` that add no step: promotion and demotion
    of a threat, reuse for an open condition. An open condition's new-step
    children are ``new_step_actions``'s."""
    out: list[Resolver] = []
    if isinstance(flaw, Threat):
        t, link = flaw
        p, _, c = link
        if plan.can_order(t, p):
            out.append(Resolver("promotion", None, None, None, (t, p)))
        if plan.can_order(c, t):
            out.append(Resolver("demotion", None, None, None, (c, t)))
        return out

    q, c = flaw
    blocked = (1 << c) | plan.after[c]    # c and the steps after it
    for sid in _bits(plan.producers[q] & ~blocked):
        out.append(Resolver("reuse", q, c, sid))
    return out


def new_step_actions(plan: PartialPlan, fact: int, task: GroundTask,
                     max_copies: Optional[int] = MAX_COPIES) -> list[GroundAction]:
    """The actions whose new step could support ``fact``, in ``task.adders``
    order. ``max_copies`` bounds how many steps may share one ground-action
    id, cutting achieve/destroy loops; ``None`` disables the filter."""
    # Only copies of the fact's adders are compared with the bound, and every
    # step holding one adds the fact: its producers other than a0 are the
    # steps to count.
    copies: dict[int, int] = {}
    if max_copies is not None:
        for sid in _bits(plan.producers[fact] & ~(1 << INIT_STEP)):
            aid = plan.steps[sid].id
            copies[aid] = copies.get(aid, 0) + 1
    actions = task.actions
    return [actions[aid] for aid in task.adders[fact]
            if not copies or copies.get(aid, 0) < max_copies]


class NewStepBase:
    """What every new-step child of the open condition ``(fact, consumer)``
    of ``plan`` shares, whichever action the new step is; ``child`` builds
    each child.

    Made with ``plan``, ``fact``, ``consumer`` and ``step_after``, the new
    step's row of the children's closure: all that ranking the children
    reads. ``shared`` is None until the first child is built, and then the
    part every child shares: the children's closure (the new step last), the
    parent's links plus the new link, the parent's open conditions less
    ``(fact, consumer)``, the live threats on the new link, and the parent's
    threats plus those.
    """
    __slots__ = ("plan", "fact", "consumer", "step_after", "shared")

    def __init__(self, plan: PartialPlan, fact: int, consumer: int):
        self.plan = plan
        self.fact = fact
        self.consumer = consumer
        self.step_after = (1 << GOAL_STEP) | (1 << consumer) | plan.after[consumer]
        self.shared = None

    def _shared_part(self) -> tuple:
        """Build ``shared``. The new step sits after a0 and before a_inf and
        the consumer: it cannot close a cycle, and it orders no pair of
        existing steps, so every old threat stays live, and it is the new
        link's producer, so it never threatens that link."""
        plan, q, c = self.plan, self.fact, self.consumer
        sid = len(plan.steps)
        after = list(plan.after)
        after.append(self.step_after)
        after[INIT_STEP] |= 1 << sid
        after = tuple(after)
        link = CausalLink(sid, q, c)
        on_link = tuple(_threats_on_link(after, plan.steps, link))
        return (after, plan.links + (link,), _without(plan.open_conds, OpenCondition(q, c)),
                on_link, plan.threats + on_link)

    def child(self, act: GroundAction) -> PartialPlan:
        """The child whose new step is ``act``. Beyond the shared part, built
        on the first call, it builds only its steps, its ``producers``, its
        action's preconditions as open conditions and the threats its step
        poses to existing links."""
        shared = self.shared
        if shared is None:
            shared = self.shared = self._shared_part()
        after, links, open_conds, on_link, threats = shared
        plan = self.plan
        sid = len(plan.steps)
        bit = 1 << sid
        producers = list(plan.producers)
        for f in act.add:
            producers[f] |= bit
        by_step = _threats_by_step(after, sid, act, plan.links)
        if by_step:
            by_step += on_link
            threats = plan.threats + tuple(sorted(by_step, key=_threat_sort_key))
        new_conds = []
        for f in act.pre:
            new_conds.append(_record(OpenCondition, (f, sid)))
        return PartialPlan(plan.steps + (act,), after, producers, links,
                           open_conds + tuple(new_conds), threats)


def apply_resolver(plan: PartialPlan, resolver: Resolver) -> Optional[PartialPlan]:
    """A new plan with the resolver applied, or None if an ordering cycles."""
    kind, q, c, p, ordering = resolver
    if kind == "reuse":
        after = _add_edge(plan.after, p, c)
        if after is None:
            return None
        link = CausalLink(p, q, c)
        threats = _live_threats(after, plan.threats)
        threats += _threats_on_link(after, plan.steps, link)
        return PartialPlan(plan.steps, after, plan.producers, plan.links + (link,),
                           _without(plan.open_conds, OpenCondition(q, c)), tuple(threats))

    # promotion or demotion
    x, y = ordering
    after = _add_edge(plan.after, x, y)
    if after is None:
        return None
    return PartialPlan(plan.steps, after, plan.producers, plan.links, plan.open_conds,
                       tuple(_live_threats(after, plan.threats)))


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
