from __future__ import annotations

import gc
import os
import sys
from random import Random

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from poclkit.grounding import GroundAction, GroundTask
from poclkit.heuristics import build_tables
from poclkit.pddl import load_domain, load_problem
from poclkit.plans import PartialPlan
from poclkit.grounding import ground

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def make_task(n_facts: int, actions: list[tuple[set[int], set[int], set[int]]],
              init: set[int], goal: set[int], name: str = "synthetic") -> GroundTask:
    """Build a task directly from index sets: actions are (pre, add, delete)."""
    ground_actions = tuple(
        GroundAction(i, f"a{i}", frozenset(pre), frozenset(add), frozenset(dele - add))
        for i, (pre, add, dele) in enumerate(actions))
    facts = tuple(f"(f{i})" for i in range(n_facts))
    return GroundTask(name, name, facts, ground_actions, frozenset(init), frozenset(goal),
                      {f: i for i, f in enumerate(facts)})


def random_task(rng: Random, max_facts: int = 12, max_actions: int = 10) -> GroundTask:
    """Small random task for oracle cross-checks."""
    n_facts = rng.randint(2, max_facts)
    n_actions = rng.randint(1, max_actions)
    facts = range(n_facts)
    actions = []
    for _ in range(n_actions):
        pre = set(rng.sample(facts, rng.randint(0, min(3, n_facts))))
        add = set(rng.sample(facts, rng.randint(1, min(3, n_facts))))
        dele = set(rng.sample(facts, rng.randint(0, min(2, n_facts))))
        actions.append((pre, add, dele))
    init = set(rng.sample(facts, rng.randint(1, max(1, n_facts // 2))))
    goal = set(rng.sample(facts, rng.randint(0, min(3, n_facts))))
    return make_task(n_facts, actions, init, goal)


def load_fixture_task(domain: str, problem: str) -> GroundTask:
    return ground(load_domain(fixture_path(domain)), load_problem(fixture_path(problem)))


def live_plans() -> int:
    """Number of ``PartialPlan`` objects alive after a full collection."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is PartialPlan)


@pytest.fixture(scope="session")
def gripper2():
    return load_fixture_task("gripper.pddl", "gripper-2.pddl")


@pytest.fixture(scope="session")
def gripper2_tables(gripper2):
    return build_tables(gripper2)


@pytest.fixture
def chain_task():
    # init {0}, A: 0 -> 1, B: 1 -> 2, goal {2}
    return make_task(3, [({0}, {1}, set()), ({1}, {2}, set())], {0}, {2}, name="chain")
